//! # peerstripe-net — the networked deployment path
//!
//! Everything else in this workspace runs against the in-process simulator;
//! this crate turns the reproduction into a system.  It has three layers:
//!
//! * [`protocol`] — a small length-prefixed framed wire format for the
//!   paper's §3 primitives (`getCapacity` probes, block store/fetch, repair
//!   reads) with a versioned header, a max-frame limit, and serde-backed
//!   message bodies;
//! * [`node`] + [`server`] — the `peerstripe-node` daemon: one node's
//!   contributed store served over TCP by a thread-per-connection server
//!   with per-connection timeouts and graceful shutdown;
//! * [`gateway`] — a [`RingGateway`] implementing the same cluster-facing
//!   traits as the simulator (`ClusterView` / `ProbeView` /
//!   `StorageBackend`), so the `PeerStripe` client, the placement
//!   strategies, and the repair stack drive live daemons unchanged; it
//!   pipelines each chunk's probes, block stores and fetches across the
//!   ring.
//!
//! [`ring`] spawns localhost rings of real daemon processes for experiments
//! and tests; `repro ring` stores and recovers a file across such a ring
//! through a real node kill.
//!
//! Observability runs end-to-end across the wire: every instrumented gateway
//! RPC carries a request id that the node echoes and records in its own
//! bounded op log, each [`NodeService`] keeps per-op metrics a `GetStats`
//! frame exposes, and [`monitor`] scrapes a whole ring into one node-labelled
//! registry (`repro monitor` drives it against a `LocalRing`).
//!
//! The crate is deliberately *not* in the deterministic-simulation set: it
//! touches wall clocks and sockets, and says so via audited lint waivers
//! instead of a blanket exemption.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod gateway;
pub mod monitor;
pub mod node;
pub mod protocol;
pub mod ring;
pub mod server;

pub use gateway::{GatewayConfig, NodeEndpoint, RingGateway, LATENCY_BUCKETS_MS};
pub use monitor::{ClusterMonitor, MonitorConfig, NodeHealth};
pub use node::{NodeConfig, NodeService};
pub use protocol::{
    NodeStats, OpLogEntry, RemoteError, RepairBlock, Request, Response, WireError, MAX_FRAME,
    VERSION,
};
pub use ring::{node_binary, LocalRing};
pub use server::{NodeServer, RunningNode, ServerConfig};
