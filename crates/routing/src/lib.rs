//! The simulated data-exchange protocol of LITEWORP's evaluation
//! (Section 6): a generic on-demand shortest-path routing protocol with
//! flooded route requests, reverse-path route replies, cached routes,
//! exponential data traffic — and the LITEWORP protection layer wired into
//! every node.
//!
//! * [`packet`] — the wire format (requests, replies, data, discovery,
//!   alerts), all carrying *announced* identities.
//! * [`node`] — [`node::ProtocolNode`], the honest node logic; its
//!   processing methods are public so the attack crate can wrap it.
//! * [`flood`] — [`flood::FloodTable`], a node's seen route-request
//!   floods and their reverse hops, one probe per received copy.
//! * [`params`] — the Table 2 knobs (route timeout, traffic rates, route
//!   selection policy, discovery mode).
//! * [`bootstrap`] — oracle preloading of neighbor tables from geometry.
//! * [`stats`] — per-node counters and the ground-truth route log.
//!
//! # Example
//!
//! Build a protected node and inspect its configuration:
//!
//! ```
//! use liteworp_routing::node::ProtocolNode;
//! use liteworp_routing::params::NodeParams;
//! use liteworp::types::NodeId;
//!
//! let node = ProtocolNode::new(NodeId(0), NodeParams {
//!     total_nodes: 10,
//!     ..NodeParams::default()
//! });
//! assert!(node.liteworp().is_some(), "protection on by default");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bootstrap;
mod expiry;
pub mod flood;
pub mod node;
pub mod packet;
pub mod params;
pub mod stats;

pub use node::ProtocolNode;
pub use packet::Packet;
pub use params::{DiscoveryMode, NodeParams, RouteSelection};
