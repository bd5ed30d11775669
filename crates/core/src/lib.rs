//! # LITEWORP — lightweight wormhole detection and isolation
//!
//! A faithful, host-agnostic implementation of the protocol from
//! *LITEWORP: A Lightweight Countermeasure for the Wormhole Attack in
//! Multihop Wireless Networks* (Khalil, Bagchi, Shroff — DSN 2005).
//!
//! LITEWORP defends multihop wireless networks (sensor / ad-hoc) against
//! wormhole attacks without specialized hardware, clock synchronization,
//! or per-packet overhead. Its three mechanisms, each a module here:
//!
//! * **Secure two-hop neighbor discovery** ([`discovery`], [`neighbor`]):
//!   a one-time HELLO / authenticated-reply / list-announcement exchange
//!   leaves every node knowing its first- and second-hop neighbors.
//! * **Local monitoring** ([`monitor`], [`watch`], [`malc`]): nodes that
//!   neighbor both ends of a link (*guards*) overhear its traffic, detect
//!   fabricated and dropped control packets, and keep per-neighbor
//!   malicious counters.
//! * **Response and isolation** ([`alert`]): a guard whose counter crosses
//!   the threshold revokes the suspect and alerts the suspect's neighbors;
//!   γ distinct accusations isolate the node network-wide among its
//!   neighbors.
//!
//! The [`protocol::Liteworp`] facade bundles everything a host needs; the
//! crate is *sans-IO* — it never touches a radio, a clock, or a scheduler,
//! so the same state machines run under the repository's discrete-event
//! simulator or (in principle) a real sensor stack.
//!
//! # Example
//!
//! A guard catching a wormhole endpoint fabricating route requests:
//!
//! ```
//! use liteworp::prelude::*;
//!
//! // Guard node 0, neighboring the innocent node 1 and the wormhole
//! // endpoint 2 (whose announced neighbor list is {0, 1, 3}).
//! let mut lw = Liteworp::new(Config::default(), KeyStore::new(7, NodeId(0)));
//! lw.table_mut().add_neighbor(NodeId(1));
//! lw.table_mut().add_neighbor(NodeId(2));
//! lw.table_mut().set_neighbor_list(NodeId(1), [NodeId(0), NodeId(2)]);
//! lw.table_mut().set_neighbor_list(NodeId(2), [NodeId(0), NodeId(1), NodeId(3)]);
//!
//! // Node 2 "forwards" requests it claims came from node 1 — but node 1
//! // never transmitted them (they arrived through the wormhole tunnel).
//! let fabricated = |seq| PacketObs {
//!     sender: NodeId(2),
//!     claimed_prev: Some(NodeId(1)),
//!     link_dst: None,
//!     sig: PacketSig { kind: PacketKind::RouteRequest, origin: NodeId(8), target: NodeId(9), seq },
//!     terminal: false,
//! };
//! for seq in 1..3 {
//!     lw.observe_packet(&fabricated(seq), Micros(seq));
//! }
//! let (effects, admission) = lw.observe_packet(&fabricated(3), Micros(1_000));
//! assert!(effects.iter().any(|e| matches!(e, Effect::Isolated { suspect: NodeId(2) })));
//! assert!(lw.is_isolated(NodeId(2)));
//! assert!(!admission.is_accept(), "the accused sender's frame is refused");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod alert;
pub mod config;
pub mod discovery;
pub mod keys;
pub mod malc;
pub mod monitor;
pub mod neighbor;
pub mod protocol;
pub mod types;
pub mod watch;

pub use protocol::prelude;
pub use protocol::Liteworp;
