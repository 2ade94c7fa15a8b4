//! # themis-harness — experiment assembly and figure reproduction
//!
//! Glues the substrate crates into runnable experiments:
//!
//! * [`scheme`] — the load-balancing schemes under comparison (§5
//!   baselines + ablations).
//! * [`cluster`] — the one cluster assembly: fabric (leaf-spine or
//!   fat-tree) + NICs + Themis middleware on the ToRs, and the
//!   fabric-validity rule every entry point shares.
//! * [`experiment`] — generic collective runner and the metrics bundle.
//! * [`session`] — the one run substrate: a provision → step → drain
//!   [`Session`] that [`experiment`], [`fig1`], [`load`], [`service`],
//!   the end-to-end tests and the examples all drive a cluster through
//!   (DESIGN.md "Run substrate"). The cluster's entities are read
//!   through [`Cluster`]'s typed accessors.
//! * [`faults`] — deterministic fault-injection scenarios ([`FaultPlan`])
//!   scheduled through ordinary simulator events.
//! * [`oracle`] — the trace-driven protocol-invariant oracle every run
//!   can be audited against.
//! * [`fig1`] — the §2.2 motivation experiment (Fig 1b/1c/1d). The §5
//!   DCQCN sweep (Fig 5a/5b) is `bin/fig5.rs`: [`sweep`] cells of
//!   [`run_collective`] and [`run_fat_tree_rings`].
//! * [`report`] — plain-text tables and series for terminal output.
//! * [`sweep`] — parallel fan-out of independent sweep cells
//!   (`--jobs N` in the binaries), deterministic in cell order.
//! * [`load`] — the open-loop production traffic engine, a scripted
//!   client of the run substrate: multi-tenant job churn with windowed
//!   telemetry and a sliding-window oracle (`themis_load`).
//! * [`cli`] — the one flag table and argv parser under all six
//!   binaries; `<binary> --help` is rendered from it.
//! * [`knobs`] — the `--jobs` and `--shards`/`THEMIS_SHARDS` parallelism
//!   axes: how the two compose, and the one environment fallback.
//! * [`shrink`] — greedy delta-debugging (`ddmin`) shared by the fuzzer
//!   and the parallel-engine property tests.
//! * [`coverage`] — telemetry-derived coverage features and the
//!   coverage-guided fuzzing loop behind `themis_fuzz`.
//! * [`mcheck`] — the partial-order-reduced model checker behind
//!   `tests/model_check.rs`.
//! * [`telemetry_out`] — `--telemetry` / `--trace-last` output shared
//!   by the binaries (JSON report writing, event-ring dumps).
//! * [`service`] — the sim-as-a-service verbs front door
//!   (`themis_serve`): one warm fabric behind `create_qp` /
//!   `post_send` / `poll_cq` / `snapshot` / `restore` over a
//!   length-prefixed JSON socket protocol.
//! * [`json`] — `telemetry::json` re-exported: the workspace's one
//!   JSON codec (value, parser, encoder), which the service protocol
//!   and its snapshots use (nesting capped at 128).

#![warn(missing_docs)]

pub mod cli;
pub mod cluster;
pub mod coverage;
pub mod experiment;
pub mod faults;
pub mod fig1;
pub mod json;
pub mod knobs;
pub mod load;
pub mod mcheck;
pub mod oracle;
pub mod report;
pub mod scheme;
pub mod service;
pub mod session;
pub mod shrink;
pub mod sweep;
pub mod telemetry_out;

pub use cluster::{
    assemble, build_cluster, build_cluster_sharded, build_fat_tree_cluster_sharded, Cluster,
    ClusterError, ThemisAggregate, Topology,
};
pub use coverage::{fuzz, CorpusCase, FeatureMap, FuzzConfig, FuzzReport, Mode};
pub use experiment::{
    expected_delivered_bytes, planned_transfers, run_collective, run_collective_with_faults,
    run_fat_tree_rings, run_point_to_point, Collective, CompletionOutcome, ExperimentConfig,
    ExperimentResult, NicAggregate, SchemeAggregate,
};
pub use faults::{Fault, FaultEvent, FaultPlan, FaultSpace};
pub use knobs::shards_from_env;
pub use load::{run_open_loop, InvalidConfig, LoadConfig, LoadReport};
pub use mcheck::{brute_force_executions, explore, CheckConfig, CheckReport, EvictionMode};
pub use oracle::{assert_conformant, OracleConfig, OracleReport, Violation};
pub use scheme::Scheme;
pub use service::{serve, Client, Endpoint, ServiceConfig, SimService};
pub use session::{Session, Start};
pub use shrink::ddmin;
pub use sweep::SweepRunner;
pub use telemetry_out::TelemetryArgs;

#[cfg(test)]
mod tests {
    /// What a sharded run moves onto its workers, and what a caller may
    /// hand to another thread, is `Send` by derivation: no `unsafe impl`.
    #[test]
    fn simulation_state_is_send() {
        fn send<T: Send>() {}
        send::<netsim::world::World>();
        send::<crate::Cluster>();
        send::<crate::SimService>();
        send::<telemetry::Sink>();
        send::<telemetry::SharedClock>();
        send::<telemetry::SharedStamp>();
    }
}
