//! The harness parallelism knobs: what they mean and their environment
//! fallbacks.
//!
//! The harness exposes **two orthogonal** parallelism axes, and every
//! binary spells them the same way (the [`crate::cli`] tables share one
//! declaration of each flag):
//!
//! * **`--jobs N` / `THEMIS_JOBS`** — *sweep-level* fan-out: how many
//!   independent `(config, seed, scheme)` cells run concurrently, each
//!   on its own worker thread with its own serial (or sharded) world.
//!   See [`crate::sweep::SweepRunner`].
//! * **`--shards N` / `THEMIS_SHARDS`** — *within-run* parallelism: how
//!   many engine shards one simulation is partitioned into
//!   (conservative-window parallel discrete-event execution, see
//!   `netsim::world::ShardPlan`). Results are bit-identical to a serial
//!   run for any shard count. The spelling `auto` picks the machine's
//!   available parallelism (see [`auto_shards`]).
//!
//! The two **compose multiplicatively**: `--jobs 4 --shards 2` runs up
//! to 8 simulation threads. Large sweeps of small cells want jobs
//! (perfect scaling, zero synchronization); single big runs want shards
//! (windowed barrier synchronization, but speeds up the one run you are
//! waiting on). The CLI flag always wins over the environment variable,
//! which wins over the default of 1.

/// Shard count chosen by the `auto` spelling: the std runtime's view of
/// available parallelism (respects cgroup CPU quotas), 1 when unknown.
/// Partition builders further clamp to the topology's shard ceiling.
pub fn auto_shards() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

/// Parse one shard-count spelling: a plain integer or `auto`.
pub fn parse_shards(s: &str) -> Option<usize> {
    if s.eq_ignore_ascii_case("auto") {
        Some(auto_shards())
    } else {
        s.parse().ok()
    }
}

/// Value of a `usize` environment knob, or `default` when unset or
/// unparsable.
fn usize_from_env(name: &str, default: usize) -> usize {
    std::env::var(name)
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(default)
}

/// Sweep worker count from `THEMIS_JOBS` (default 1, clamped ≥ 1).
pub fn jobs_from_env() -> usize {
    usize_from_env("THEMIS_JOBS", 1).max(1)
}

/// Engine shard count from `THEMIS_SHARDS` (default 1 = serial,
/// clamped ≥ 1; `auto` = [`auto_shards`]). Partition builders
/// additionally clamp to the topology's natural shard ceiling (leaf or
/// pod count).
pub fn shards_from_env() -> usize {
    std::env::var("THEMIS_SHARDS")
        .ok()
        .and_then(|s| parse_shards(&s))
        .unwrap_or(1)
        .max(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shard_spellings() {
        assert_eq!(parse_shards("3"), Some(3));
        assert_eq!(parse_shards("AUTO"), Some(auto_shards()));
        assert!(auto_shards() >= 1);
        assert_eq!(parse_shards("two"), None);
        assert_eq!(parse_shards("-1"), None);
    }
}
