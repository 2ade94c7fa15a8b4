//! The JSON value, parser and encoder of the service's wire protocol
//! and snapshots: the workspace's one codec, which lives in the
//! dependency-free `telemetry` crate ([`telemetry::json`]).

pub use telemetry::json::*;
