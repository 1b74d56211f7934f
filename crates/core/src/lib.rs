//! PeerStripe: contributory storage for desktop grids.
//!
//! This crate implements the storage system proposed in *"On Utilization of
//! Contributory Storage in Desktop Grids"* (Miller, Butler, Shah, Butt): a
//! peer-to-peer storage layer that splits large files into **varying-size
//! chunks** sized by `getCapacity` probes of the prospective target nodes,
//! erasure codes each chunk, scatters the coded blocks over a Pastry-style
//! overlay, tracks offsets in a replicated chunk-allocation table, and
//! regenerates lost blocks when participants fail.
//!
//! Crate layout:
//!
//! * [`naming`] — the `file_chunk_ecb` / `file.CAT` naming convention;
//! * [`cat`] — the chunk allocation table (Figure 3);
//! * [`policy`] — placement-level coding policies (none / XOR / online);
//! * [`storage`] + [`cluster`] — the contributory storage substrate shared with
//!   the PAST/CFS baselines;
//! * [`backend`] — the [`StorageBackend`] seam the client drives, implemented
//!   by the simulator here and by live TCP daemons in `peerstripe-net`;
//! * [`client`] — the [`PeerStripe`] system itself (store, retrieve, recover);
//! * [`system`] — the [`StorageSystem`] trait and placement manifests;
//! * [`churn`] — availability tracking and regeneration sweeps (Figure 10, Table 3);
//! * [`metrics`] — store metrics behind Figures 7–9 and Table 1.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod backend;
pub mod cat;
pub mod churn;
pub mod client;
pub mod cluster;
pub mod metrics;
pub mod naming;
pub mod policy;
pub mod storage;
pub mod system;

pub use backend::{BlockWrite, FetchedBlock, StorageBackend};
pub use cat::{ChunkAllocationTable, ChunkExtent};
pub use churn::{DamageLedger, NodeLoss};
pub use client::{PeerStripe, PeerStripeConfig, RecoveryReport};
pub use cluster::{ClusterConfig, ClusterStoreError, StorageCluster};
pub use metrics::{MaintenanceMetrics, MaintenanceSample, StoreMetrics};
pub use naming::ObjectName;
pub use policy::CodingPolicy;
pub use storage::{NodeStoreError, StorageNode, StoredObject};
pub use system::{
    BlockPlacement, ChunkPlacement, FileManifest, ManifestStore, StorageSystem, StoreOutcome,
};
