//! # dcg-repro — Deterministic Clock Gating (HPCA 2003), reproduced in Rust
//!
//! A full reproduction of *"Deterministic Clock Gating for Microprocessor
//! Power Reduction"* (Hai Li, Swarup Bhunia, Yiran Chen, T. N. Vijaykumar,
//! Kaushik Roy — HPCA 2003): the DCG technique, the Pipeline Balancing
//! (PLB) baseline, a cycle-accurate 8-wide out-of-order superscalar
//! simulator, a Wattch-style power model at 0.18 µm, synthetic SPEC2000
//! workloads, and a harness regenerating every figure in the paper's
//! evaluation.
//!
//! This facade crate re-exports the workspace members:
//!
//! | module | crate | contents |
//! |---|---|---|
//! | [`isa`] | `dcg-isa` | Alpha-like instruction-set model |
//! | [`emu`] | `dcg-emu` | assembler + functional reference emulator |
//! | [`workloads`] | `dcg-workloads` | synthetic SPEC2000-like generators + real kernels |
//! | [`sim`] | `dcg-sim` | the out-of-order pipeline substrate |
//! | [`power`] | `dcg-power` | the per-component energy model |
//! | [`core`] | `dcg-core` | **DCG** (the paper's contribution) + PLB |
//! | [`trace`] | `dcg-trace` | recorded activity traces (simulate once, replay) |
//! | [`experiments`] | `dcg-experiments` | figure/table regeneration |
//! | [`server`] | `dcg-server` | crash-resumable experiment daemon + client |
//!
//! ## Quick start
//!
//! ```
//! use dcg_repro::core::{run_passive, Dcg, NoGating, RunLength};
//! use dcg_repro::sim::{LatchGroups, SimConfig};
//! use dcg_repro::workloads::{Spec2000, SyntheticWorkload};
//!
//! let cfg = SimConfig::baseline_8wide();
//! let groups = LatchGroups::new(&cfg.depth);
//! let mut baseline = NoGating::new(&cfg, &groups);
//! let mut dcg = Dcg::new(&cfg, &groups);
//! let workload = SyntheticWorkload::new(Spec2000::by_name("gzip").unwrap(), 1);
//! let run = run_passive(&cfg, workload, RunLength::quick(), &mut [&mut baseline, &mut dcg]);
//! println!(
//!     "DCG saves {:.1} % of processor power at zero performance cost",
//!     100.0 * run.outcomes[1].report.power_saving_vs(&run.outcomes[0].report)
//! );
//! ```
//!
//! See `examples/` for runnable scenarios and `DESIGN.md`/`EXPERIMENTS.md`
//! for the reproduction methodology and paper-vs-measured numbers.

#![deny(missing_docs)]

pub use dcg_core as core;
pub use dcg_emu as emu;
pub use dcg_experiments as experiments;
pub use dcg_isa as isa;
pub use dcg_power as power;
pub use dcg_server as server;
pub use dcg_sim as sim;
pub use dcg_trace as trace;
pub use dcg_workloads as workloads;
