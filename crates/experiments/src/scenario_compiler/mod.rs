//! Declarative scenario compiler: TOML files → runnable workloads.
//!
//! The pipeline is `toml::parse` (dependency-free TOML-subset parser with
//! line-numbered errors) → `compile::compile` (strict semantic checking
//! into a [`workload::WorkloadScenario`] + [`compile::SweepSpec`]) →
//! `sweep::expand` (cartesian axis expansion into supervised jobs).
//!
//! The decks in `scenarios/*.toml` are the one source for the scenarios
//! this repository reproduces; there is no Rust copy of them. Everything a
//! compiled [`workload::WorkloadScenario`] produces (layouts, fault plans,
//! simulators) is a pure function of the struct plus `(variant, seed)`, so
//! the compile-equivalence suite pins each deck by the fingerprint of its
//! compiled struct and a shrunk replay of selected decks by
//! `schedule_hash`, event count and deliveries.

pub mod compile;
pub mod sweep;
pub mod toml;
pub mod workload;

pub use compile::{compile, parse_variant, variant_name, CompiledScenario, SweepSpec};
pub use sweep::{check, expand, job_count, quicken, CheckReport, SweepJob, DEFAULT_CAP};
pub use toml::TomlError;
pub use workload::{
    ChurnSpec, ChurnWindow, FaultSpec, FaultWindow, MobilitySpec, TopologyFamily, TrafficMix,
    WorkloadScenario,
};
