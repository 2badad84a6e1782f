//! # fa-modelcheck: an explicit-state model checker for step-machine
//! algorithms
//!
//! The paper validates its algorithms with the TLC model checker: "The TLC
//! model-checker is able to exhaustively explore all 3-processor executions
//! of this algorithm, and it confirms that the algorithm solves the snapshot
//! task wait-free" (Figure 3's caption), and "the TLC model-checker confirms
//! that [...] the algorithm of Figure 3 [...] does not provide atomic memory
//! snapshots" (Section 8). This crate reproduces both checks natively:
//!
//! * [`Explorer`] — breadth-first exhaustive exploration of every
//!   interleaving of a fixed system (processes + wirings), with invariant
//!   checking on every reachable state and counterexample schedules. The
//!   hot path runs over the flat id arena of [`arena`]; invariants observe
//!   states through the borrow-only [`StateView`].
//! * [`strategy`] — how a sweep spends its `--jobs` budget: one combo
//!   claim loop for any thread count, each combo explored on the thread
//!   that claimed it.
//! * [`canon`] — symmetry-quotient canonicalization: orbit-representative
//!   arena rows under the system's processor/register automorphism group,
//!   with exact orbit sizes for full-space accounting.
//! * [`store`] — the visited set, one [`TieredVisited`]: resident rows in
//!   one flat vector, with the oldest full shards spilled to a checksummed
//!   append-only disk file (and dropped from memory) under a memory
//!   budget.
//! * [`checks`] — ready-made checks: the snapshot task (E3), adaptive
//!   renaming, consensus safety, and solo-termination (the wait-freedom
//!   certificate).
//! * [`checkpoint`] — crash-safe resumable sweeps: an append-only
//!   checksummed journal of finished combo outcomes, recovery that
//!   truncates torn tails and replays recorded outcomes verbatim, a memory
//!   watchdog that stops a sweep at an RSS limit, and env-driven crash
//!   injection.
//! * [`atomicity`] — E5: whether a returned snapshot can be a set of inputs
//!   the memory never held, one sweep per reading on the [`Explorer`]'s
//!   history column, with witnesses replayed independently of the engine.
//! * [`wirings`] — enumeration of wiring combinations with the
//!   register-relabeling symmetry reduction (fix processor 0 to the identity
//!   wiring).
//!
//! ```
//! use fa_modelcheck::checks::check_snapshot_task;
//!
//! // Exhaustive over all interleavings and all wirings (mod symmetry):
//! // 2 processors, distinct inputs.
//! let report = check_snapshot_task(&[1, 2], 200_000).unwrap();
//! assert!(report.violation.is_none());
//! assert!(report.complete, "the N=2 state space is fully explored");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod arena;
pub mod atomicity;
pub mod canon;
pub mod checkpoint;
pub mod checks;
mod explorer;
pub mod store;
pub mod strategy;
pub mod telemetry;
pub mod wirings;

pub use arena::{ArenaState, ArenaTables, IdSpaceExhausted, StateView};
pub use canon::Canonicalizer;
pub use checkpoint::{
    crash_point, inspect_journal, scope_of, sweep_fingerprint, CheckpointConfig, JournalError,
    JournalHeader, JournalRecord, MemoryWatchdog, Recovery, SweepJournal,
};
pub use checks::{CheckConfig, CheckOutcome, QuotientStats, TaskCheckReport};
pub use explorer::{step_block, ExploreReport, Explorer, McState, Violation};
pub use store::{InMemoryVisited, ShardedVisited, StoreError, TieredVisited, VisitedStore};
pub use strategy::{ComboOutcome, StrategyKind};
pub use telemetry::{ExplorerTelemetry, SweepTelemetry};
