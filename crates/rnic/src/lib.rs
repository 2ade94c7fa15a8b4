//! # rnic — commodity RNIC model
//!
//! Models the behaviour of current-generation commodity RNICs
//! (Mellanox CX-6/CX-7 class) that the paper targets (§2.2):
//!
//! * **NIC-SR** ([`config::TransportMode::SelectiveRepeat`]): the receiver
//!   keeps an expected PSN (ePSN) and a bitmap of out-of-order arrivals.
//!   A packet with PSN > ePSN triggers a NACK carrying *only the ePSN*,
//!   **at most once per ePSN value**. The sender retransmits exactly the
//!   ePSN packet — and, crucially for the paper, also *slows down* ("the
//!   unnecessary slow start").
//! * **Go-Back-N** ([`config::TransportMode::GoBackN`]): previous-generation
//!   behaviour (CX-4/5): out-of-order packets are dropped and the sender
//!   rewinds to the ePSN.
//! * **Ideal oracle** ([`config::TransportMode::IdealOracle`]): the Fig 1d
//!   upper bound — NACKs are generated only for packets the simulator
//!   knows were really dropped, and never reduce the rate.
//!
//! Congestion control is DCQCN ([`dcqcn`]) with the paper's (T_I, T_D)
//! knobs. The NIC itself ([`nic::Nic`]) is a [`netsim::world::Entity`]:
//! it owns one port to its ToR, paces each QP at its DCQCN rate, and
//! arbitrates QPs round-robin at line rate.

#![warn(missing_docs)]
// Non-test code states its invariants (`#[expect(.., reason)]` at the
// sites that keep one) instead of unwrapping, expecting or panicking;
// tests are exempt through clippy.toml.
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

pub mod bitmap;
pub mod config;
pub mod dcqcn;
pub mod nic;
pub mod psn;
pub mod qp;
pub mod reaction;

pub use config::{CcConfig, NicConfig, TransportMode};
pub use dcqcn::Dcqcn;
pub use nic::{Nic, QpDescriptor};
pub use psn::{extend24, wire_psn};
pub use reaction::{
    EntropyStats, OooReaction, OooReactionKind, OooReactionStats, SenderEntropy, SenderEntropyKind,
    TransportReaction,
};
