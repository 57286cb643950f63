//! BGP control plane over the simulated topology.
//!
//! The paper correlates per-site performance with **AS-level paths pulled
//! from BGP routing tables** of routers near each vantage point (Section 3).
//! This crate computes those tables from first principles with the standard
//! Gao–Rexford policy model:
//!
//! * **Export (valley-free)**: routes learned from customers are exported to
//!   everyone; routes learned from peers or providers are exported only to
//!   customers. A resulting path is a sequence of "up" (customer→provider)
//!   edges, at most one peer edge, then "down" (provider→customer) edges.
//! * **Selection**: prefer customer-learned over peer-learned over
//!   provider-learned routes (local preference), then shortest AS path,
//!   then lowest next-hop AS id (deterministic tie-break).
//!
//! Route computation runs per destination over the per-family subgraph and
//! yields the best route *from every AS at once*. [`RouteChain`] streams
//! each destination's computation through every routing epoch, keeping only
//! the rows of the vantage-point routers; each [`BgpTable`] is one such
//! router's view, which is what the monitor consumes.

pub mod chain;
pub mod compute;
pub mod dump;
pub mod path;
pub mod table;

pub use chain::{Flips, RouteChain};
pub use compute::{routes_to_dest, RouteGraph, RouteKind, RoutesToDest};
pub use dump::{dump, parse_dump, DumpParseError};
pub use path::{AsPath, AsPathRef};
pub use table::{BgpTable, RouteRef};
