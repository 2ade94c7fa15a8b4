//! # netsim — packet-level network substrate
//!
//! A packet-level datacenter-network simulator in the NS-3 methodology,
//! purpose-built for the Themis reproduction:
//!
//! * [`packet`] — RoCEv2-shaped packets: Data (PSN-carrying), ACK/NACK
//!   (carrying only the expected PSN, like commodity RNICs), CNP, Handshake.
//! * [`port`] — egress ports with store-and-forward serialization, finite
//!   shared buffers, WRED/ECN marking, loss injection.
//! * [`switch`] — output-queued switches with destination routing, uplink
//!   load-balancing policies, and the ToR hook extension point that
//!   Themis-S / Themis-D plug into.
//! * [`lb`] — ECMP (GF(2)-linear hash), random packet spraying, adaptive
//!   routing, round-robin.
//! * [`hash`] — CRC-16 based flow hash whose *linearity* enables the
//!   PathMap construction of the paper (§3.2, \[37\]).
//! * [`topology`] — leaf-spine builder, the Fig 1a motivation topology,
//!   and fat-tree arithmetic for the §4 memory example.
//! * [`world`] — entity registry and event dispatch on top of
//!   [`simcore::Engine`].
//!
//! The crate knows nothing about RNIC internals or Themis itself; those
//! live in the `rnic` and `themis-core` crates and plug in through the
//! [`world::Entity`] and [`hooks::TorHook`] traits.

#![warn(missing_docs)]

pub mod event;
pub mod fat_tree;
pub mod hash;
pub mod hooks;
pub mod lb;
pub mod packet;
pub mod port;
pub mod switch;
pub mod telem;
pub mod topology;
pub mod trace;
pub mod types;
pub mod world;

pub use event::{ControlMsg, Event, Routed};
pub use fat_tree::{build_fat_tree, FatTreeConfig, FatTreePlan};
pub use hooks::{HookCtx, ReverseAction, TorHook};
pub use lb::LbPolicy;
pub use packet::{Packet, PacketKind};
pub use port::{EcnConfig, EgressPort, LinkSpec, SharedBuffer};
pub use switch::{Switch, SwitchConfig};
pub use topology::{FabricPlan, HostAttachment, LeafSpineConfig};
pub use types::{HostId, NodeId, PortId, QpId};
pub use world::{Ctx, Entity, World};
