//! Schedule fuzzing for the fully-anonymous algorithms.
//!
//! The exhaustive model checker (`fa-modelcheck`) proves the paper's safety
//! properties, but only at small scope; the random-walk tests cover larger
//! systems with a uniform adversary that is weak at exposing rare
//! interleavings. This crate closes the gap with a fuzzing subsystem:
//!
//! * **Adversary** — campaigns schedule cases under
//!   [`fa_memory::PctScheduler`] (Probabilistic Concurrency Testing:
//!   priority scheduling with `d` random priority-change points) wrapped in
//!   [`fa_memory::CrashingScheduler`] for failure injection; depth 0 falls
//!   back to the uniform random adversary.
//! * **Oracles** ([`oracle`]) — the [`Oracle`] trait lifts
//!   the invariants previously duplicated across `tests/` into reusable
//!   per-step checkers: snapshot comparability + self-inclusion and
//!   view/level monotonicity, renaming uniqueness and the `M(M+1)/2` name
//!   bound, consensus agreement/validity.
//! * **Driver** ([`driver`]) — generates cases from a seed
//!   ([`case::CaseGen`]): system size, wirings, crash set, PCT depth; runs
//!   each under a step budget; reports violations deterministically and
//!   emits [`fa_obs::FuzzEvent`] telemetry (cases/s, violations, distinct
//!   stable-view patterns seen).
//! * **Shrinker** ([`driver::shrink_schedule`]) — on a violation,
//!   delta-debugs the executed schedule (which subsumes the crash set: a
//!   crash is exactly the absence of further steps) down to a minimal
//!   [`fa_memory::ScriptedSchedule`].
//! * **Repro artifacts** ([`repro`]) — violations serialize to JSON holding
//!   the full case plus a [`fa_memory::ReplayScript`]; replaying the
//!   artifact deterministically reproduces the violation.
//! * **Corpus** ([`corpus`]) — committed regression artifacts: the Figure 2
//!   pathological schedule and the E13 unseen-competitor schedule.
//!
//! The `fuzz` binary in `crates/bench` drives campaigns from the command
//! line (`--cases/--budget/--depth/--seed/--jobs`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod case;
pub mod corpus;
pub mod driver;
pub mod oracle;
pub mod repro;
pub mod telemetry;

pub use case::{Algo, AlgoKind, CaseGen, FuzzCase};
pub use driver::{
    replay_case, run_campaign, run_case, shrink_schedule, CampaignConfig, CampaignReport,
    CaseResult,
};
pub use oracle::{ConsensusOracle, Oracle, RenamingOracle, SnapshotOracle, Violation};
pub use repro::ReproArtifact;
pub use telemetry::FuzzTelemetry;
