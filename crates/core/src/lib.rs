//! # fa-core: the paper's algorithms
//!
//! This crate implements every algorithm and construction of Losa & Gafni,
//! *"Understanding Read-Write Wait-Free Coverings in the Fully-Anonymous
//! Shared-Memory Model"* (PODC 2024), on top of the [`fa_memory`] substrate:
//!
//! * [`WriteScanProcess`] — the write–scan loop of Figure 1 (Section 4's
//!   warm-up).
//! * [`SnapshotProcess`] / [`SnapshotEngine`] — the wait-free snapshot
//!   algorithm of Figure 3, the paper's main contribution (Section 5).
//! * [`LongLivedSnapshotProcess`] — the long-lived variant (Section 7).
//! * [`RenamingProcess`] — adaptive renaming with `M(M+1)/2` names via
//!   Bar-Noy–Dolev on group snapshots (Section 6, Figure 4).
//! * [`ConsensusProcess`] — obstruction-free consensus by derandomizing
//!   Chandra's algorithm over the long-lived snapshot (Section 7, Figure 5).
//! * [`BackoffArbiter`] — randomized-exponential-backoff contention
//!   management so obstruction-free consensus terminates in practice on
//!   real threads.
//! * [`stable_view`] — the eventual-pattern analysis: GST, stable views, and
//!   the single-source DAG theorem (Section 4, Theorem 4.8).
//! * [`figure2`] — the pathological execution of Figure 2, reproduced
//!   step by step, plus its 5-processor extension.
//! * [`lower_bound`] — the covering construction showing `N−1` registers are
//!   insufficient (Section 2.1).
//! * [`runner`] — convenience harnesses used by examples, tests and benches.
//!
//! ## Quickstart
//!
//! ```
//! use fa_core::runner::{run_snapshot_random, SnapshotRunConfig};
//!
//! let cfg = SnapshotRunConfig::new(vec![10, 20, 30]).with_seed(42);
//! let result = run_snapshot_random(&cfg).unwrap();
//! // All outputs are pairwise containment-related and contain the writer's
//! // own input: the snapshot task is solved.
//! for (i, view) in result.views.iter().enumerate() {
//!     assert!(view.contains(&cfg.inputs()[i]));
//!     for other in &result.views {
//!         assert!(view.comparable(other));
//!     }
//! }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod backoff;
mod consensus;
pub mod durability;
pub mod figure2;
pub mod gst;
mod long_lived;
pub mod lower_bound;
pub mod metrics;
pub mod pathology;
mod renaming;
pub mod runner;
mod snapshot;
pub mod stable_view;
mod view;
mod write_scan;

pub use backoff::{BackoffArbiter, BackoffStats};
pub use consensus::{ConsensusProcess, Stamped};
pub use long_lived::LongLivedSnapshotProcess;
pub use renaming::RenamingProcess;
pub use snapshot::{EngineStep, SnapRegister, SnapshotEngine, SnapshotProcess};
pub use view::{SmallView, View, ViewIntoIter, ViewIter, ViewValue};
pub use write_scan::WriteScanProcess;
