//! The harness parallelism knobs: what they mean and the one
//! environment fallback.
//!
//! The harness exposes **two orthogonal** parallelism axes, and every
//! binary spells them the same way (the [`crate::cli`] tables share one
//! declaration of each flag):
//!
//! * **`--jobs N`** — *sweep-level* fan-out: how many independent
//!   `(config, seed, scheme)` cells run concurrently, each on its own
//!   worker thread with its own serial (or sharded) world. See
//!   [`crate::sweep::SweepRunner`]. The flag is the only way to set it.
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
//! waiting on).
//!
//! Only the shard count has an environment fallback, because tests
//! cannot take flags: `scripts/ci.sh` re-runs whole test suites sharded
//! by exporting `THEMIS_SHARDS=2`, and every config constructor reads it
//! through [`shards_from_env`]. In the binaries `--shards` always wins
//! over the variable, which wins over the default of 1.

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
