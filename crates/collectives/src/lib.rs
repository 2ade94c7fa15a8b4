//! # collectives — collective-communication workloads
//!
//! The paper evaluates Themis on Allreduce and Alltoall (§5): 256 NICs in
//! 16 communication groups of 16, every group spanning all 16 racks, all
//! groups starting simultaneously, with the *slowest group's completion
//! time* as the metric.
//!
//! * [`schedule`] — dependency-DAG representation of a collective:
//!   transfers `(src rank, dst rank, bytes)` plus happens-before edges.
//! * [`ring`] — ring Allreduce (reduce-scatter + allgather, 2(N−1)
//!   dependent steps), ring AllGather and ReduceScatter.
//! * [`alltoall`] — pairwise Alltoall (all transfers start at once) and
//!   N-to-1 incast.
//! * [`hierarchical`] — NCCL-style two-level (rack-aware) Allreduce.
//! * [`groups`] — the §5 group construction (one NIC per rack per group).
//! * [`driver`] — an in-simulation entity that posts transfers when their
//!   dependencies deliver and records per-group completion times.

//! * [`open_loop`] — heavy-tailed, open-loop multi-tenant load
//!   generation (flow-size CDFs, Poisson/bursty arrivals, job churn,
//!   incast storms) sampled ahead of the run.

// Non-test code states its invariants (`#[expect(.., reason)]` at the
// sites that keep one) instead of unwrapping, expecting or panicking;
// tests are exempt through clippy.toml.
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

pub mod alltoall;
pub mod driver;
pub mod groups;
pub mod hierarchical;
pub mod open_loop;
pub mod ring;
pub mod schedule;

pub use driver::{Driver, QpAllocator};
pub use open_loop::{Arrival, FlowSizeCdf, JobKind, JobSpec, LoadPlan, OpenLoopSpec};
pub use schedule::{Schedule, Transfer};
