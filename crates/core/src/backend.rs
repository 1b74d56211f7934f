//! The backend seam: the narrow storage interface the [`PeerStripe`] client
//! (and the `peerstripe-repair` regeneration executor) drive.
//!
//! Everything the store / retrieve / recover paths need from the world is
//! captured here: capacity probes (via [`ProbeView`]), block placement and
//! retrieval, rollback, and ring-neighbour selection for CAT replication.
//! [`StorageCluster`] implements it in-process (the simulator, the default
//! backend), and `peerstripe-net`'s gateway implements it against live
//! `peerstripe-node` daemons over TCP — so the placement, erasure, and repair
//! stacks run unchanged against real processes.
//!
//! [`PeerStripe`]: crate::client::PeerStripe

use crate::cluster::{ClusterStoreError, StorageCluster};
use crate::naming::ObjectName;
use peerstripe_overlay::{Id, NodeRef};
use peerstripe_placement::ProbeView;
use peerstripe_sim::ByteSize;

/// An object fetched from a backend, returned by value.
///
/// The simulator hands out `&StoredObject` internally, but a networked
/// backend receives bytes off the wire and cannot lend references into a
/// node's store — so the seam returns owned data.  Placement-path objects
/// carry no payload, so the clone the sim impl performs is metadata-sized.
#[derive(Debug, Clone)]
pub struct FetchedBlock {
    /// The object's recorded size.
    pub size: ByteSize,
    /// The object's payload bytes, when the byte path stored any.
    pub payload: Option<Vec<u8>>,
}

/// One write of a [`StorageBackend::store_blocks`] batch: store `name` (with
/// `payload`, on the byte path) under `key` on an explicit `node`.
#[derive(Debug, Clone)]
pub struct BlockWrite {
    /// The node to store on.
    pub node: NodeRef,
    /// The key the object is stored under.
    pub key: Id,
    /// The object's name.
    pub name: ObjectName,
    /// The object's size, charged against the node's capacity.
    pub size: ByteSize,
    /// The object's payload bytes, on the byte path.
    pub payload: Option<Vec<u8>>,
}

/// The storage operations a [`PeerStripe`] client drives against its backend.
///
/// Supertrait [`ProbeView`] (and its supertrait `ClusterView`) supplies the
/// paper's `getCapacity` probe plus routing/liveness queries; this trait adds
/// the data-plane verbs.
///
/// The batch verbs ([`StorageBackend::store_blocks`],
/// [`StorageBackend::fetch_blocks`], and [`ProbeView::probe_all`]) carry one
/// chunk's worth of independent calls.  Their defaults issue the calls one at
/// a time through the single-call verbs, which is what the simulator uses; a
/// networked backend overrides them to have the whole batch in flight at
/// once.  Either way a batch makes exactly the calls the single-call loop
/// would (a failed probe aside, see [`ProbeView::probe_all`]) and answers
/// them in call order.
///
/// [`PeerStripe`]: crate::client::PeerStripe
pub trait StorageBackend: ProbeView {
    /// Route a key to the node currently responsible for it, charging one
    /// overlay lookup message (the simulator's accounting; networked backends
    /// route against their membership ring).
    fn route_lookup(&mut self, key: Id) -> Option<NodeRef>;

    /// Store an object on an explicit node under `key`.
    fn store_block(
        &mut self,
        node: NodeRef,
        key: Id,
        name: ObjectName,
        size: ByteSize,
        payload: Option<Vec<u8>>,
    ) -> Result<NodeRef, ClusterStoreError>;

    /// Fetch an object from a specific node, by value.
    fn fetch_block(&self, node: NodeRef, name: &ObjectName) -> Option<FetchedBlock>;

    /// Store a batch of objects, returning one result per write in call
    /// order.  Every write is attempted: a refusal does not stop the writes
    /// after it.  The caller rolls back the writes that succeeded when it
    /// needs all-or-nothing.
    fn store_blocks(&mut self, writes: Vec<BlockWrite>) -> Vec<Result<NodeRef, ClusterStoreError>> {
        writes
            .into_iter()
            .map(|w| self.store_block(w.node, w.key, w.name, w.size, w.payload))
            .collect()
    }

    /// Fetch a batch of `(node, name)` objects, returning one result per
    /// request in call order.
    fn fetch_blocks(&self, reqs: &[(NodeRef, &ObjectName)]) -> Vec<Option<FetchedBlock>> {
        reqs.iter()
            .map(|&(node, name)| self.fetch_block(node, name))
            .collect()
    }

    /// Undo a store: remove the object if the node tracks it, otherwise
    /// release its reserved space.
    fn rollback_block(&mut self, node: NodeRef, name: &ObjectName, size: ByteSize);

    /// The `k` ring members numerically closest to `key` (leaf-set targets
    /// for CAT replication).  No lookup message is charged.
    fn replica_targets(&self, key: Id, k: usize) -> Vec<(Id, NodeRef)>;
}

impl StorageBackend for StorageCluster {
    fn route_lookup(&mut self, key: Id) -> Option<NodeRef> {
        self.overlay_mut().route(key)
    }

    fn store_block(
        &mut self,
        node: NodeRef,
        key: Id,
        name: ObjectName,
        size: ByteSize,
        payload: Option<Vec<u8>>,
    ) -> Result<NodeRef, ClusterStoreError> {
        self.store_object_at(node, key, name, size, payload)
    }

    fn fetch_block(&self, node: NodeRef, name: &ObjectName) -> Option<FetchedBlock> {
        self.fetch_from(node, name).map(|obj| FetchedBlock {
            size: obj.size,
            payload: obj.payload.clone(),
        })
    }

    fn rollback_block(&mut self, node: NodeRef, name: &ObjectName, size: ByteSize) {
        self.rollback_object(node, name, size);
    }

    fn replica_targets(&self, key: Id, k: usize) -> Vec<(Id, NodeRef)> {
        self.overlay().ring().k_closest(key, k)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::ClusterConfig;
    use peerstripe_sim::DetRng;
    use peerstripe_trace::CapacityModel;

    fn cluster() -> StorageCluster {
        let mut rng = DetRng::new(3);
        ClusterConfig {
            nodes: 30,
            capacity: CapacityModel::Fixed(ByteSize::mb(100)),
            report_fraction: 1.0,
            track_objects: true,
        }
        .build(&mut rng)
    }

    #[test]
    fn sim_backend_round_trips_through_the_seam() {
        let mut backend = cluster();
        let name = ObjectName::block("f", 0, 1);
        let node = backend.route_lookup(name.key()).unwrap();
        backend
            .store_block(
                node,
                name.key(),
                name.clone(),
                ByteSize::mb(1),
                Some(vec![7, 8, 9]),
            )
            .unwrap();
        let fetched = backend.fetch_block(node, &name).unwrap();
        assert_eq!(fetched.size, ByteSize::mb(1));
        assert_eq!(fetched.payload.as_deref(), Some(&[7u8, 8, 9][..]));
        backend.rollback_block(node, &name, ByteSize::mb(1));
        assert!(backend.fetch_block(node, &name).is_none());
    }

    #[test]
    fn replica_targets_are_distinct_ring_members() {
        let backend = cluster();
        let targets = backend.replica_targets(Id::hash("cat"), 3);
        assert_eq!(targets.len(), 3);
        let nodes: std::collections::BTreeSet<_> = targets.iter().map(|(_, n)| *n).collect();
        assert_eq!(nodes.len(), 3);
    }
}
