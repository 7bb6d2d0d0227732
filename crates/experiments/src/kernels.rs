//! Real-program kernel experiments: savings tables for the checked-in
//! kernels, their JSON encoding, and the **differential harness** that
//! cross-checks the timing pipeline against the functional emulator.
//!
//! The differential check is this module's headline: for a kernel, the
//! emulator's committed stream (PCs, operands, resolved addresses and
//! branch directions, register and memory writes) must match what the
//! pipeline retires, cycle budgets aside. Any disagreement produces a
//! structured [`Divergence`] naming the first mismatching instruction and
//! field — not a diff dump.

use std::fmt;

use dcg_core::{
    run_active, run_passive_with_sinks, ClairvoyantSink, Dcg, NoGating, Plb, PlbVariant,
    PolicyOutcome, RunLength, TraceCache,
};
use dcg_emu::{Emulator, Program};
use dcg_power::PowerReport;
use dcg_sim::{LatchGroups, Processor, SimConfig, SimStats};
use dcg_testkit::json::Json;
use dcg_workloads::{Kernel, ProgramStream, KERNEL_STEP_LIMIT};

/// Run length for kernel experiments: short warmup, then a measurement
/// window that fits inside every kernel's dynamic length, so the measured
/// cycles are real program behaviour rather than post-halt spin.
pub fn kernel_run_length() -> RunLength {
    RunLength {
        warmup_insts: 2_000,
        measure_insts: 20_000,
    }
}

/// Trace-cache seed under which kernel runs are keyed. Kernels have no
/// generation seed; the constant keeps cache keys stable.
pub const KERNEL_SEED: u64 = 0;

/// One kernel's results across the compared gating schemes.
#[derive(Debug)]
pub struct KernelRun {
    /// Kernel name.
    pub name: &'static str,
    /// Ungated base-case energy.
    pub baseline: PowerReport,
    /// DCG outcome (same timing run as the baseline).
    pub dcg: PolicyOutcome,
    /// PLB-ext outcome (dedicated run — PLB is an active policy).
    pub plb_ext: PolicyOutcome,
    /// Oracle (perfect-knowledge) outcome.
    pub oracle: PolicyOutcome,
    /// Simulator statistics of the measured window.
    pub stats: SimStats,
}

impl KernelRun {
    /// DCG total-power saving vs. the base case.
    pub fn dcg_saving(&self) -> f64 {
        self.dcg.report.power_saving_vs(&self.baseline)
    }

    /// PLB-ext total-power saving vs. the base case.
    pub fn plb_ext_saving(&self) -> f64 {
        self.plb_ext.report.power_saving_vs(&self.baseline)
    }

    /// Oracle total-power saving vs. the base case.
    pub fn oracle_saving(&self) -> f64 {
        self.oracle.report.power_saving_vs(&self.baseline)
    }
}

/// Run every checked-in kernel under baseline + DCG and the clairvoyant
/// oracle (one passive pass, cached when `cache` is given) and PLB-ext.
///
/// # Panics
///
/// Panics if a checked-in kernel fails to assemble or execute — that is
/// a broken commit. A failed cached replay falls back to a live run.
pub fn run_kernels(sim: &SimConfig, cache: Option<&TraceCache>) -> Vec<KernelRun> {
    let length = kernel_run_length();
    let groups = LatchGroups::new(&sim.depth);
    // Kernels are independent sweep points; shard them across
    // DCG_SWEEP_THREADS workers and assemble in kernel order so the
    // savings JSON is byte-identical for any worker count.
    let kernels = Kernel::all();
    dcg_core::run_sharded(kernels.len(), |i| {
        let k = &kernels[i];
        let (mut run, styles) = TraceCache::run_fail_open(
            cache,
            sim,
            k.name,
            KERNEL_SEED,
            length,
            || k.stream(),
            |source| {
                let mut baseline = NoGating::new(sim, &groups);
                let mut dcg = Dcg::new(sim, &groups);
                let mut oracle = ClairvoyantSink::new(sim, &groups);
                let run = run_passive_with_sinks(
                    sim,
                    source,
                    length,
                    &mut [&mut baseline, &mut dcg],
                    &mut [&mut oracle],
                )?;
                Ok((run, oracle.into_styles()))
            },
        );
        let dcg_out = run.outcomes.remove(1);
        let base_out = run.outcomes.remove(0);

        let mut plb = Plb::new(PlbVariant::Ext, sim, &groups);
        let plb_ext = run_active(sim, k.stream(), length, &mut plb);

        KernelRun {
            name: k.name,
            baseline: base_out.report,
            dcg: dcg_out,
            plb_ext,
            oracle: styles.oracle(),
            stats: run.stats,
        }
    })
}

/// Energy as an exact bit pattern: the identity surface stores
/// `f64::to_bits`, keeping the golden-regression discipline integer-only
/// even for energies.
fn pj_bits(report: &PowerReport) -> Json {
    Json::u64(report.total_pj().to_bits())
}

/// Encode kernel savings as JSON.
///
/// Follows the metrics-JSON discipline: the per-kernel `identity` block
/// is integer-exact (counts and `f64::to_bits` energies) so equal runs
/// serialize byte-identically; human-readable derived ratios live in a
/// separate `derived` block outside the equivalence surface.
pub fn kernel_savings_json(runs: &[KernelRun]) -> Json {
    Json::obj([
        ("schema", Json::str("dcg-kernel-savings-v1")),
        (
            "kernels",
            Json::arr(
                runs.iter()
                    .map(|r| {
                        Json::obj([
                            ("name", Json::str(r.name)),
                            (
                                "identity",
                                Json::obj([
                                    ("cycles", Json::u64(r.stats.cycles)),
                                    ("committed", Json::u64(r.stats.committed)),
                                    ("issued", Json::u64(r.stats.issued)),
                                    ("dcache_misses", Json::u64(r.stats.dcache_misses)),
                                    ("mispredicts", Json::u64(r.stats.mispredicts)),
                                    ("base_pj_bits", pj_bits(&r.baseline)),
                                    ("dcg_pj_bits", pj_bits(&r.dcg.report)),
                                    ("plb_ext_pj_bits", pj_bits(&r.plb_ext.report)),
                                    ("oracle_pj_bits", pj_bits(&r.oracle.report)),
                                    ("dcg_violations", Json::u64(r.dcg.audit.violations)),
                                ]),
                            ),
                            (
                                "derived",
                                Json::obj([
                                    ("ipc", Json::f64(r.stats.ipc())),
                                    ("dcg_saving", Json::f64(r.dcg_saving())),
                                    ("plb_ext_saving", Json::f64(r.plb_ext_saving())),
                                    ("oracle_saving", Json::f64(r.oracle_saving())),
                                ]),
                            ),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

/// The first point where the pipeline's retired stream disagrees with the
/// functional reference model.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Divergence {
    /// Kernel (or program) name.
    pub kernel: String,
    /// Zero-based commit index of the first mismatching instruction.
    pub index: u64,
    /// Which facet diverged (`pc`, `op`, `dest`, `srcs`, `mem`, `branch`,
    /// `reg_write`, `load`, `store`, `length`).
    pub field: &'static str,
    /// The reference model's value, rendered.
    pub expected: String,
    /// The pipeline side's value, rendered.
    pub got: String,
}

impl fmt::Display for Divergence {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: first divergence at committed instruction {}: {} — reference {}, pipeline {}",
            self.kernel, self.index, self.field, self.expected, self.got
        )
    }
}

impl std::error::Error for Divergence {}

fn diverge<T: fmt::Debug>(
    kernel: &str,
    index: u64,
    field: &'static str,
    expected: &T,
    got: &T,
) -> Box<Divergence> {
    Box::new(Divergence {
        kernel: kernel.to_string(),
        index,
        field,
        expected: format!("{expected:?}"),
        got: format!("{got:?}"),
    })
}

/// Differential emulated-vs-pipelined check.
///
/// Runs `golden` to completion on the functional emulator, then drives
/// the pipeline (at `sim`'s depth) with `piped` until it has retired the
/// same number of instructions, and compares instruction-by-instruction:
///
/// * the **retired stream** — PC, op class, destination, sources,
///   resolved memory address/size, resolved branch behaviour; and
/// * the **architectural effects** — register writes, load results and
///   store bytes, taken from the pipeline-side program's own commit
///   records.
///
/// Passing `piped == golden` proves the pipeline retires the reference
/// stream exactly (in order, once each, nothing dropped or invented).
/// Passing a deliberately mutated `piped` proves the check *fails
/// loudly*: the returned [`Divergence`] names the first mismatch.
///
/// # Errors
///
/// The first [`Divergence`], boxed (it carries rendered values).
///
/// # Panics
///
/// Panics if `golden` does not run clean on the emulator (checked-in
/// kernels always do), or if the pipeline deadlocks.
pub fn differential_check(
    sim: &SimConfig,
    golden: &Program,
    piped: &Program,
) -> Result<u64, Box<Divergence>> {
    let name = golden.name().to_string();
    let mut reference = Emulator::new(golden.clone());
    let records = reference
        .run(KERNEL_STEP_LIMIT)
        .unwrap_or_else(|e| panic!("reference program `{name}` failed under emulation: {e}"));

    let mut cpu = Processor::new(sim.clone(), ProgramStream::with_log(piped.clone()));
    cpu.enable_retire_log();
    cpu.run_until_commits(records.len() as u64, |_| {});

    let retired = cpu.retired_log();
    if (retired.len() as u64) < records.len() as u64 {
        return Err(diverge(
            &name,
            retired.len() as u64,
            "length",
            &records.len(),
            &retired.len(),
        ));
    }
    let piped_log = cpu.stream().log();

    for (k, want) in records.iter().enumerate() {
        let idx = k as u64;
        // Retired-stream identity.
        let got = &retired[k];
        let e = &want.inst;
        if got.pc != e.pc {
            return Err(diverge(&name, idx, "pc", &e.pc, &got.pc));
        }
        if got.op != e.op {
            return Err(diverge(&name, idx, "op", &e.op, &got.op));
        }
        if got.dest != e.dest {
            return Err(diverge(&name, idx, "dest", &e.dest, &got.dest));
        }
        if got.srcs != e.srcs {
            return Err(diverge(&name, idx, "srcs", &e.srcs, &got.srcs));
        }
        if got.mem != e.mem {
            return Err(diverge(&name, idx, "mem", &e.mem, &got.mem));
        }
        if got.branch != e.branch {
            return Err(diverge(&name, idx, "branch", &e.branch, &got.branch));
        }
        // Architectural effects from the pipeline-side commit records.
        let Some(got_rec) = piped_log.get(k) else {
            return Err(diverge(
                &name,
                idx,
                "length",
                &records.len(),
                &piped_log.len(),
            ));
        };
        if got_rec.reg_write != want.reg_write {
            return Err(diverge(
                &name,
                idx,
                "reg_write",
                &want.reg_write,
                &got_rec.reg_write,
            ));
        }
        if got_rec.load != want.load {
            return Err(diverge(&name, idx, "load", &want.load, &got_rec.load));
        }
        if got_rec.store != want.store {
            return Err(diverge(&name, idx, "store", &want.store, &got_rec.store));
        }
    }
    Ok(records.len() as u64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernel_suite_savings_are_sane() {
        // One kernel end-to-end keeps this unit test fast; the full
        // six-kernel sweep lives in the integration suites.
        let sim = SimConfig::baseline_8wide();
        let k = Kernel::by_name("sort").expect("sort kernel exists");
        let length = kernel_run_length();
        let groups = LatchGroups::new(&sim.depth);
        let mut baseline = NoGating::new(&sim, &groups);
        let mut dcg = Dcg::new(&sim, &groups);
        let mut cpu = Processor::new(sim.clone(), k.stream());
        let run = run_passive_with_sinks(
            &sim,
            &mut cpu,
            length,
            &mut [&mut baseline, &mut dcg],
            &mut [],
        )
        .expect("live run");
        // The window closes on the cycle that crosses the target, so the
        // count may overshoot by at most one commit group.
        assert!(run.stats.committed >= length.measure_insts);
        assert!(run.stats.committed < length.measure_insts + sim.commit_width as u64);
        let saving = run.outcomes[1]
            .report
            .power_saving_vs(&run.outcomes[0].report);
        assert!(
            saving > 0.05 && saving < 0.9,
            "DCG saving on a real kernel should be substantial: {saving}"
        );
        assert_eq!(run.outcomes[1].audit.violations, 0);
    }

    #[test]
    fn differential_check_passes_on_identical_programs() {
        let sim = SimConfig::baseline_8wide();
        let p = Kernel::by_name("rle")
            .expect("rle kernel exists")
            .assemble();
        let n = differential_check(&sim, &p, &p).expect("identical programs agree");
        assert!(n > 20_000, "compared {n} instructions");
    }

    #[test]
    fn savings_json_carries_schema_tag() {
        let doc = kernel_savings_json(&[]).to_string();
        assert!(doc.contains("dcg-kernel-savings-v1"));
    }

    #[test]
    fn differential_check_names_first_mismatch() {
        use dcg_emu::{AsmInst, Funct};

        let sim = SimConfig::baseline_8wide();
        let golden = Kernel::by_name("memfill")
            .expect("memfill kernel exists")
            .assemble();
        // Flip one add into a sub early in the program: same instruction
        // shape, different value — only the architectural-effect
        // comparison can catch it.
        let mut mutated = golden.clone();
        let victim = mutated
            .insts()
            .iter()
            .position(|i| {
                i.funct == Funct::Add && i.dest.map(|d| !d.is_zero()).unwrap_or(false) && i.uses_imm
            })
            .expect("memfill has an add-immediate");
        let broken = AsmInst {
            imm: mutated.insts()[victim].imm ^ 1,
            ..mutated.insts()[victim]
        };
        mutated.replace(victim, broken);

        let err =
            differential_check(&sim, &golden, &mutated).expect_err("mutated program must diverge");
        assert_eq!(err.kernel, "memfill");
        let report = err.to_string();
        assert!(
            report.contains("first divergence"),
            "report should name the first divergence: {report}"
        );
    }
}
