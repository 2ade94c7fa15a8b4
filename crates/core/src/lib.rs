//! # themis-core — the paper's contribution
//!
//! Themis is a lightweight middleware deployed **only on ToR switches**
//! that makes packet spraying work with commodity RNICs whose NIC-SR
//! transport blindly NACKs out-of-order arrivals (§2.2). It has two
//! halves, both implemented here as [`netsim::hooks::TorHook`]s:
//!
//! * **Themis-S** ([`themis_s`]) at the *source* ToR enforces PSN-based
//!   packet spraying (Eq. 1): packet `i` of a flow takes path
//!   `(PSN_i mod N + P_base) mod N`. Two modes: direct egress selection
//!   (2-tier Clos) and PathMap UDP-sport rewriting (multi-tier, §3.2 /
//!   Figure 3, exploiting ECMP hash linearity).
//! * **Themis-D** ([`themis_d`]) at the *destination* ToR classifies every
//!   NACK as *valid* (the expected packet is provably lost because the
//!   triggering OOO packet took the same path — Eq. 3) or *invalid*
//!   (multi-path delay variation), blocking the invalid ones. Because
//!   commodity NACKs carry only the ePSN, Themis-D identifies the
//!   triggering PSN (tPSN) by scanning a per-QP **ring queue of 1-byte
//!   truncated PSNs** ([`psn_queue`]) recorded on the last hop (§3.3).
//!   Blocked NACKs are **compensated** (§3.4) when a later same-path
//!   packet proves the loss real.
//!
//! [`memory`] reproduces the §4 switch-SRAM overhead model (≈193 KB for
//! the Table 1 reference values), and [`failure`] describes and tests the
//! §6 link-failure fallback (revert to ECMP, or narrow the pathset).

#![warn(missing_docs)]
// Non-test code states its invariants (`#[expect(.., reason)]` at the
// sites that keep one) instead of unwrapping, expecting or panicking;
// tests are exempt through clippy.toml.
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

pub mod config;
pub mod failure;
pub mod flow_table;
pub mod memory;
pub mod middleware;
pub mod pathmap;
pub mod policy;
pub mod psn_queue;
pub mod themis_d;
pub mod themis_s;

pub use config::ThemisConfig;
pub use middleware::ThemisMiddleware;
pub use themis_d::ThemisD;
pub use themis_s::{SprayMode, ThemisS};
