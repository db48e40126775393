//! # experiments — regenerating the paper's evaluation
//!
//! Scenario builders, measurement, parallel runners and report rendering for
//! every table and figure of *"High-Throughput Multicast Routing Metrics in
//! Wireless Mesh Networks"* (ICDCS 2006). The mapping from experiment to
//! binary lives in `DESIGN.md`; results are recorded in `EXPERIMENTS.md`.
//!
//! The crate is a library so tests and benches can run scaled-down versions
//! of each experiment; the `src/bin/` entry points are thin wrappers that
//! parse flags, run the matching scenario matrix and print our numbers next
//! to the paper's.
//!
//! ## Example: a miniature Figure-2 run
//!
//! ```no_run
//! use experiments::runner::{paper_variants, run_matrix, summarize};
//! use experiments::scenario::MeshScenario;
//! use experiments::WorkloadScenario;
//! use odmrp::Variant;
//!
//! let cell = WorkloadScenario::from_mesh("mini-fig2", MeshScenario::quick());
//! let results = run_matrix(&paper_variants(), &[1, 2, 3], |v, s| cell.run_once(v, s));
//! let summaries = summarize(&results, Variant::Original);
//! println!("{}", experiments::report::throughput_table(
//!     &summaries, &experiments::paper::FIG2_THROUGHPUT_SIM));
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod ascii_map;
pub mod cli;
pub mod measure;
pub mod paper;
pub mod recovery;
pub mod report;
pub mod runner;
pub mod scenario;
pub mod scenario_compiler;
pub mod stats;
pub mod trees;

pub use measure::RunMeasurement;
pub use recovery::{RecoveryAnalysis, RecoverySpec};
pub use runner::{
    paper_variants, run_matrix, run_testbed_once, summarize, MatrixReport, RunFailure,
    VariantSummary,
};
pub use scenario::{GroupSpec, MeshScenario, ScenarioLayout, TestbedScenario};
pub use scenario_compiler::WorkloadScenario;
