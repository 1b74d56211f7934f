//! The gateway: the networked [`StorageBackend`].
//!
//! A [`RingGateway`] holds the membership ring of a set of live
//! `peerstripe-node` daemons and implements the exact cluster-facing traits
//! the simulator does — [`ClusterView`], [`ProbeView`], and
//! [`StorageBackend`] — by translating each call into a framed RPC.  The
//! `PeerStripe` client, the placement strategies, and the repair executor
//! drive it unchanged: the store path probes capacities over real sockets,
//! the retrieve path pulls block bytes off the wire, and recovery reads
//! surviving blocks from live daemons.
//!
//! # Fan-out
//!
//! The batch verbs ([`ProbeView::probe_all`], [`StorageBackend::store_blocks`],
//! [`StorageBackend::fetch_blocks`]) carry one chunk's independent calls, and
//! the gateway pipelines them: every request of a batch is written to its
//! node's connection before any reply is read, and the replies are then read
//! in call order.  A chunk's probes, block stores and fetches therefore cost
//! about one round trip instead of one per block: a chunk's blocks, like a
//! CAT's copies, are created together rather than pushed one after another.
//! A batch
//! carries one kind of operation, so the gateway never blocks writing a large
//! request while a daemon is blocked writing a large reply.  A single call is
//! a batch of one; there is no other RPC path.
//!
//! # Connections and failures
//!
//! Each node has at most one pooled connection.  The pool's lock is held only
//! to take streams out and put them back, never across socket I/O, so a hung
//! daemon stalls only the callers waiting on it.  A pooled stream found dead
//! (reset, end of stream, broken pipe) before its first reply is re-dialed
//! once and the node's share of the batch resent.  A timeout is not retried:
//! the node's remaining calls in the batch fail at once, so a stalled node
//! costs one batch at most one [`GatewayConfig::timeout`].
//!
//! # Telemetry
//!
//! Every RPC is counted and timed in a [`MetricsRegistry`]
//! (`gateway_rpc_total`, `gateway_rpc_errors`, `gateway_rpc_latency_ms`,
//! labelled by operation), which the ring harness exports into its JSON
//! report, and logged with a request id of its own that the node echoes into
//! its op log.  A pipelined RPC's latency runs from its batch's first write to
//! its own reply, so the summed RPC latency of an operation can exceed the
//! operation's wall time: the excess is the overlap.

use crate::protocol::{
    read_response_traced, write_request_traced, NodeStats, OpLogEntry, RemoteError, RepairBlock,
    Request, Response, WireError,
};
use peerstripe_core::{
    BlockWrite, ClusterStoreError, FetchedBlock, NodeStoreError, ObjectName, StorageBackend,
};
use peerstripe_overlay::{Id, IdRing, NodeRef, Takeover};
use peerstripe_placement::{ClusterView, ProbeView};
use peerstripe_sim::ByteSize;
use peerstripe_telemetry::{CounterHandle, HistogramHandle, MetricsRegistry, RegistryExport};
use std::collections::{BTreeMap, VecDeque};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Duration;

/// One daemon the gateway can reach.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NodeEndpoint {
    /// The node's reference (its index in the gateway's node table).
    pub node: NodeRef,
    /// The node's overlay identifier.
    pub id: Id,
    /// Where the daemon listens.
    pub addr: SocketAddr,
}

/// Gateway tunables.
#[derive(Debug, Clone)]
pub struct GatewayConfig {
    /// Dial timeout and socket read/write timeout: the longest one batch
    /// waits on a node that stopped answering.
    pub timeout: Duration,
}

impl Default for GatewayConfig {
    fn default() -> Self {
        GatewayConfig {
            timeout: Duration::from_secs(5),
        }
    }
}

/// Latency histogram bucket bounds, in milliseconds: localhost RPCs sit in
/// the sub-millisecond buckets, WAN deployments in the tail.
pub const LATENCY_BUCKETS_MS: &[f64] = &[
    0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 25.0, 50.0, 100.0, 250.0,
];

/// The RPC operations the gateway issues, as metric label values.
const OPS: &[&str] = &[
    "ping",
    "get_capacity",
    "store_block",
    "fetch_block",
    "repair_read",
    "remove_block",
    "shutdown",
];

#[derive(Clone, Copy)]
struct OpHandles {
    total: CounterHandle,
    latency: HistogramHandle,
}

/// How many finished RPCs the gateway's op log retains.
const GATEWAY_OP_LOG_CAPACITY: usize = 4096;

/// The networked backend: a membership ring over live node daemons.
pub struct RingGateway {
    endpoints: BTreeMap<NodeRef, SocketAddr>,
    ids: BTreeMap<NodeRef, Id>,
    ring: IdRing,
    timeout: Duration,
    /// Idle pooled connections, one per node.  Locked only to take a stream
    /// out or put one back, never across socket I/O.
    conns: Mutex<BTreeMap<NodeRef, TcpStream>>,
    /// Last capacity report seen per node — the `&self` view methods
    /// ([`ClusterView::report_of`]) answer from this cache; live probes
    /// refresh it.
    reports: Mutex<BTreeMap<NodeRef, ByteSize>>,
    metrics: Mutex<MetricsRegistry>,
    handles: BTreeMap<&'static str, OpHandles>,
    /// Monotonic request-id source; every instrumented RPC carries one, so
    /// gateway and node op logs join on it.
    next_rid: AtomicU64,
    /// Recent RPCs, oldest first, bounded at [`GATEWAY_OP_LOG_CAPACITY`].
    op_log: Mutex<VecDeque<OpLogEntry>>,
}

fn lock<'a, T>(m: &'a Mutex<T>) -> std::sync::MutexGuard<'a, T> {
    // Poisoning only marks a panicked peer thread; the maps stay usable.
    m.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// True for a socket timeout, which re-dialing would only repeat.
fn is_timeout(e: &WireError) -> bool {
    matches!(e, WireError::Io(io) if matches!(
        io.kind(),
        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
    ))
}

/// One node's share of a batch: its connection and its calls in call order.
struct Lane<'a> {
    node: NodeRef,
    stream: Option<TcpStream>,
    /// Whether `stream` came from the pool, and so may have gone stale.
    pooled: bool,
    /// The node's requests, in call order, with their request ids.
    calls: Vec<(&'a Request, Option<u64>)>,
    /// Replies read so far.
    replies: usize,
    /// Once set, every remaining call of the lane fails with this error.
    failure: Option<WireError>,
}

impl Lane<'_> {
    /// A transport failure on a pooled stream before its first reply means
    /// the daemon dropped the idle connection (restart, idle timeout): worth
    /// one re-dial.  Anything later, or a timeout, is the node's fault.
    fn may_redial(&self, e: &WireError) -> bool {
        self.pooled && self.replies == 0 && e.is_transport() && !is_timeout(e)
    }

    /// Write every request of the lane, dialing first when the pool had no
    /// stream for the node.
    fn send(&mut self, gateway: &RingGateway) {
        loop {
            let mut stream = match self.stream.take() {
                Some(stream) => stream,
                None => match gateway.dial(self.node) {
                    Ok(stream) => {
                        self.pooled = false;
                        stream
                    }
                    Err(e) => {
                        self.failure = Some(e);
                        return;
                    }
                },
            };
            let written = self
                .calls
                .iter()
                .try_for_each(|&(req, rid)| write_request_traced(&mut stream, req, rid));
            match written {
                Ok(()) => {
                    self.stream = Some(stream);
                    return;
                }
                Err(e) if self.may_redial(&e) => continue,
                Err(e) => {
                    self.failure = Some(e);
                    return;
                }
            }
        }
    }

    /// Read the lane's next reply.
    fn receive(&mut self, gateway: &RingGateway) -> Result<Response, WireError> {
        loop {
            if let Some(e) = &self.failure {
                return Err(e.clone());
            }
            let Some(stream) = self.stream.as_mut() else {
                return Err(WireError::Body(format!(
                    "no connection to node {}",
                    self.node
                )));
            };
            match read_response_traced(stream) {
                Ok((resp, _)) => {
                    self.replies += 1;
                    return Ok(resp);
                }
                Err(e) if self.may_redial(&e) => {
                    self.stream = None;
                    self.send(gateway);
                }
                Err(e) => {
                    // The stream may no longer be frame-aligned: drop it.
                    self.stream = None;
                    self.failure = Some(e.clone());
                    return Err(e);
                }
            }
        }
    }
}

impl RingGateway {
    /// Build a gateway over the given endpoints. No connection is made until
    /// the first RPC.
    pub fn connect(endpoints: &[NodeEndpoint], config: GatewayConfig) -> RingGateway {
        let mut ring = IdRing::new();
        let mut addr_map = BTreeMap::new();
        let mut ids = BTreeMap::new();
        for ep in endpoints {
            ring.insert(ep.id, ep.node);
            addr_map.insert(ep.node, ep.addr);
            ids.insert(ep.node, ep.id);
        }
        let mut metrics = MetricsRegistry::new();
        let mut handles = BTreeMap::new();
        for op in OPS {
            handles.insert(
                *op,
                OpHandles {
                    total: metrics.counter("gateway_rpc_total", &[("op", op)]),
                    latency: metrics.histogram(
                        "gateway_rpc_latency_ms",
                        &[("op", op)],
                        LATENCY_BUCKETS_MS,
                    ),
                },
            );
        }
        RingGateway {
            endpoints: addr_map,
            ids,
            ring,
            timeout: config.timeout,
            conns: Mutex::new(BTreeMap::new()),
            reports: Mutex::new(BTreeMap::new()),
            metrics: Mutex::new(metrics),
            handles,
            next_rid: AtomicU64::new(1),
            op_log: Mutex::new(VecDeque::new()),
        }
    }

    /// The overlay id of a node reference.
    pub fn id_of(&self, node: NodeRef) -> Option<Id> {
        self.ids.get(&node).copied()
    }

    /// Dial a node fresh.
    fn dial(&self, node: NodeRef) -> Result<TcpStream, WireError> {
        let addr = self
            .endpoints
            .get(&node)
            .ok_or_else(|| WireError::Body(format!("unknown node {node}")))?;
        let stream = TcpStream::connect_timeout(addr, self.timeout).map_err(WireError::Io)?;
        let _ = stream.set_read_timeout(Some(self.timeout));
        let _ = stream.set_write_timeout(Some(self.timeout));
        let _ = stream.set_nodelay(true);
        Ok(stream)
    }

    /// The failure kind of an RPC outcome: a [`WireError`] variant label for
    /// transport/protocol errors, a `node_*` label for typed node refusals,
    /// `None` for success — the `kind` label on `gateway_rpc_errors`.
    fn outcome_kind(result: &Result<Response, WireError>) -> Option<&'static str> {
        match result {
            Ok(Response::Error(RemoteError::InsufficientSpace)) => Some("node_insufficient_space"),
            Ok(Response::Error(RemoteError::AlreadyStored)) => Some("node_already_stored"),
            Ok(Response::Error(RemoteError::BadRequest { .. })) => Some("node_bad_request"),
            Ok(_) => None,
            Err(e) => Some(e.kind_label()),
        }
    }

    /// Exchange one batch with the daemons: take each node's pooled stream
    /// (dialing where there is none), write every request before reading any
    /// reply, read the replies in call order, and pool the streams that
    /// stayed frame-aligned.  Returns each call's outcome with the time from
    /// the batch's first write to its reply.
    fn exchange(
        &self,
        calls: &[(NodeRef, &Request, Option<u64>)],
    ) -> Vec<(Result<Response, WireError>, Duration)> {
        let mut lanes: BTreeMap<NodeRef, Lane<'_>> = BTreeMap::new();
        for &(node, req, rid) in calls {
            lanes
                .entry(node)
                .or_insert_with(|| Lane {
                    node,
                    stream: None,
                    pooled: false,
                    calls: Vec::new(),
                    replies: 0,
                    failure: None,
                })
                .calls
                .push((req, rid));
        }
        {
            let mut pool = lock(&self.conns);
            for lane in lanes.values_mut() {
                lane.stream = pool.remove(&lane.node);
                lane.pooled = lane.stream.is_some();
            }
        }
        let start = std::time::Instant::now(); // lint:allow(wall-clock) -- measuring real RPC latency on the network path is the point of the gateway histograms
        for lane in lanes.values_mut() {
            lane.send(self);
        }
        let outcomes = calls
            .iter()
            .map(|(node, ..)| {
                let result = match lanes.get_mut(node) {
                    Some(lane) => lane.receive(self),
                    None => Err(WireError::Body(format!("no lane for node {node}"))),
                };
                (result, start.elapsed())
            })
            .collect();
        let mut pool = lock(&self.conns);
        for lane in lanes.into_values() {
            if let (Some(stream), None) = (lane.stream, lane.failure) {
                pool.insert(lane.node, stream);
            }
        }
        outcomes
    }

    /// One batch of RPCs of a single operation, pipelined by
    /// [`RingGateway::exchange`].  Every call gets a fresh request id, so the
    /// node's op log can attribute it back to this gateway's entry, and is
    /// counted, timed, and logged under `op` on its own.  A `None` call was
    /// settled by the caller without the network (its node is not a ring
    /// member): nothing is sent or recorded for it and its outcome is `None`.
    fn rpc_batch(
        &self,
        op: &'static str,
        calls: &[Option<(NodeRef, Request)>],
    ) -> Vec<Option<Result<Response, WireError>>> {
        let live = calls.iter().flatten().count() as u64;
        let first_rid = self.next_rid.fetch_add(live, Ordering::Relaxed);
        let traced: Vec<(NodeRef, &Request, Option<u64>)> = calls
            .iter()
            .flatten()
            .zip(first_rid..)
            .map(|((node, req), rid)| (*node, req, Some(rid)))
            .collect();
        let outcomes = self.exchange(&traced);
        let records: Vec<(u64, f64, Option<&'static str>)> = (first_rid..)
            .zip(&outcomes)
            .map(|(rid, (result, elapsed))| {
                let ms = elapsed.as_secs_f64() * 1e3;
                (rid, ms, Self::outcome_kind(result))
            })
            .collect();
        if let Some(h) = self.handles.get(op) {
            let mut metrics = lock(&self.metrics);
            for &(_, ms, kind) in &records {
                metrics.inc(h.total, 1);
                metrics.observe(h.latency, ms);
                if let Some(kind) = kind {
                    // Registered on first use: the kind space is open-ended, so
                    // eager registration would pin down kinds that never occur.
                    let errors =
                        metrics.counter("gateway_rpc_errors", &[("op", op), ("kind", kind)]);
                    metrics.inc(errors, 1);
                }
            }
        }
        // Shutdown is intercepted by the server layer before dispatch, so the
        // node never logs it; keeping it out of the gateway log preserves the
        // invariant that every logged RPC can join a node-side entry.
        if op != "shutdown" {
            let mut log = lock(&self.op_log);
            for &(rid, ms, kind) in &records {
                if log.len() == GATEWAY_OP_LOG_CAPACITY {
                    log.pop_front();
                }
                log.push_back(OpLogEntry {
                    request_id: Some(rid),
                    op: op.to_string(),
                    duration_ms: ms,
                    outcome: kind.unwrap_or("ok").to_string(),
                    slow: false,
                });
            }
        }
        let mut outcomes = outcomes.into_iter().map(|(result, _)| result);
        calls
            .iter()
            .map(|call| call.as_ref().and_then(|_| outcomes.next()))
            .collect()
    }

    /// One RPC: a batch of one.
    fn rpc(&self, node: NodeRef, op: &'static str, req: Request) -> Result<Response, WireError> {
        self.rpc_batch(op, &[Some((node, req))])
            .into_iter()
            .flatten()
            .next()
            .unwrap_or_else(|| Err(WireError::Body(format!("no reply to {op}"))))
    }

    /// Scrape one daemon's stats.  Deliberately uninstrumented and untraced:
    /// observation must not change the op counts, latencies, or logs it
    /// reads, so repeated scrapes of an idle ring are byte-identical.
    pub fn get_stats(&self, node: NodeRef) -> Result<NodeStats, WireError> {
        let reply = self
            .exchange(&[(node, &Request::GetStats, None)])
            .into_iter()
            .next()
            .map(|(result, _)| result)
            .unwrap_or_else(|| Err(WireError::Body("no reply to GetStats".to_string())))?;
        match reply {
            Response::Stats { stats } => Ok(*stats),
            Response::Error(e) => Err(WireError::Body(e.to_string())),
            other => Err(WireError::Body(format!(
                "unexpected reply to GetStats: {other:?}"
            ))),
        }
    }

    /// Snapshot of the gateway's recent-RPC log, oldest first.
    pub fn op_log(&self) -> Vec<OpLogEntry> {
        lock(&self.op_log).iter().cloned().collect()
    }

    /// Probe each node's capacity over the wire in one batch, refreshing the
    /// report cache.
    fn capacity_batch(&self, nodes: &[NodeRef]) -> Vec<Option<ByteSize>> {
        let calls: Vec<_> = nodes
            .iter()
            .map(|&node| Some((node, Request::GetCapacity)))
            .collect();
        let frees: Vec<Option<ByteSize>> = self
            .rpc_batch("get_capacity", &calls)
            .into_iter()
            .map(|result| match result {
                Some(Ok(Response::Capacity { free })) => Some(free),
                _ => None,
            })
            .collect();
        let mut reports = lock(&self.reports);
        for (&node, free) in nodes.iter().zip(&frees) {
            if let Some(free) = free {
                reports.insert(node, *free);
            }
        }
        frees
    }

    /// Probe one node's capacity over the wire, refreshing the report cache.
    fn capacity_rpc(&self, node: NodeRef) -> Option<ByteSize> {
        self.capacity_batch(&[node]).into_iter().next().flatten()
    }

    /// Liveness-check one node.
    pub fn ping(&self, node: NodeRef) -> bool {
        matches!(
            self.rpc(node, "ping", Request::Ping),
            Ok(Response::Pong { .. })
        )
    }

    /// Read every surviving block of `(file, chunk)` held by `node` — the
    /// bulk regeneration read.
    pub fn repair_read(
        &self,
        node: NodeRef,
        file: &str,
        chunk: u32,
    ) -> Result<Vec<RepairBlock>, WireError> {
        match self.rpc(
            node,
            "repair_read",
            Request::RepairRead {
                file: file.to_string(),
                chunk,
            },
        )? {
            Response::RepairBlocks { blocks } => Ok(blocks),
            Response::Error(e) => Err(WireError::Body(e.to_string())),
            other => Err(WireError::Body(format!(
                "unexpected reply to RepairRead: {other:?}"
            ))),
        }
    }

    /// Ask one daemon to shut down gracefully.
    pub fn shutdown_node(&self, node: NodeRef) -> bool {
        matches!(
            self.rpc(node, "shutdown", Request::Shutdown),
            Ok(Response::ShuttingDown)
        )
    }

    /// Declare a node failed: remove it from the membership ring and return
    /// the key-space takeover describing which neighbours inherit its range —
    /// the same contract as the simulator's `fail_node`.  The caller feeds
    /// the takeover to `PeerStripe::handle_node_failure` to drive recovery.
    pub fn mark_failed(&mut self, node: NodeRef) -> Option<Takeover> {
        let id = self.ids.get(&node).copied()?;
        let takeover = self.ring.takeover_on_failure(id);
        self.ring.remove(id)?;
        lock(&self.conns).remove(&node);
        lock(&self.reports).remove(&node);
        takeover
    }

    /// Snapshot of the per-RPC telemetry.
    pub fn export_metrics(&self) -> RegistryExport {
        lock(&self.metrics).export()
    }

    /// Merge the gateway's telemetry into another registry.
    pub fn merge_metrics_into(&self, target: &mut MetricsRegistry) {
        target.merge(&lock(&self.metrics));
    }

    /// Total RPCs issued, across operations (for quick report lines).
    pub fn rpc_count(&self) -> u64 {
        let metrics = lock(&self.metrics);
        self.handles
            .values()
            .map(|h| metrics.counter_value(h.total))
            .sum()
    }
}

impl ClusterView for RingGateway {
    fn route_quiet(&self, key: Id) -> Option<NodeRef> {
        self.ring.route(key).map(|(_, node)| node)
    }

    fn is_alive(&self, node: NodeRef) -> bool {
        self.ids
            .get(&node)
            .is_some_and(|id| self.ring.contains(*id))
    }

    fn can_store(&self, node: NodeRef, size: ByteSize) -> bool {
        self.is_alive(node) && self.capacity_rpc(node).is_some_and(|free| size <= free)
    }

    fn report_of(&self, node: NodeRef) -> ByteSize {
        if !self.is_alive(node) {
            return ByteSize::ZERO;
        }
        if let Some(cached) = lock(&self.reports).get(&node).copied() {
            return cached;
        }
        self.capacity_rpc(node).unwrap_or(ByteSize::ZERO)
    }

    fn node_count(&self) -> usize {
        self.endpoints.len()
    }

    fn alive_nodes(&self) -> Vec<NodeRef> {
        self.ring.iter().map(|(_, node)| node).collect()
    }
}

impl ProbeView for RingGateway {
    fn probe(&mut self, key: Id) -> Option<(NodeRef, ByteSize)> {
        self.probe_all(&[key])?.into_iter().next()
    }

    /// All of the chunk's probes in one pipelined batch.  When some probe
    /// fails, the probes after it have been issued too.
    fn probe_all(&mut self, keys: &[Id]) -> Option<Vec<(NodeRef, ByteSize)>> {
        let nodes: Vec<NodeRef> = keys
            .iter()
            .map(|&key| self.ring.route(key).map(|(_, node)| node))
            .collect::<Option<_>>()?;
        let frees = self.capacity_batch(&nodes);
        nodes
            .into_iter()
            .zip(frees)
            .map(|(node, free)| Some((node, free?)))
            .collect()
    }
}

/// What a `StoreBlock` reply means for the store path.
fn store_outcome(
    node: NodeRef,
    result: Option<Result<Response, WireError>>,
) -> Result<NodeRef, ClusterStoreError> {
    match result {
        Some(Ok(Response::Stored)) => Ok(node),
        Some(Ok(Response::Error(RemoteError::InsufficientSpace))) => Err(
            ClusterStoreError::Refused(NodeStoreError::InsufficientSpace),
        ),
        Some(Ok(Response::Error(RemoteError::AlreadyStored))) => {
            Err(ClusterStoreError::Refused(NodeStoreError::AlreadyStored))
        }
        // A node outside the ring, a transport failure or a protocol
        // surprise all read as the node being unreachable.
        _ => Err(ClusterStoreError::NoLiveNodes),
    }
}

impl StorageBackend for RingGateway {
    fn route_lookup(&mut self, key: Id) -> Option<NodeRef> {
        self.ring.route(key).map(|(_, node)| node)
    }

    fn store_block(
        &mut self,
        node: NodeRef,
        key: Id,
        name: ObjectName,
        size: ByteSize,
        payload: Option<Vec<u8>>,
    ) -> Result<NodeRef, ClusterStoreError> {
        let write = BlockWrite {
            node,
            key,
            name,
            size,
            payload,
        };
        self.store_blocks(vec![write])
            .into_iter()
            .next()
            .unwrap_or(Err(ClusterStoreError::NoLiveNodes))
    }

    /// Every write in one pipelined batch; writes to nodes outside the ring
    /// are refused without an RPC.
    fn store_blocks(&mut self, writes: Vec<BlockWrite>) -> Vec<Result<NodeRef, ClusterStoreError>> {
        let nodes: Vec<NodeRef> = writes.iter().map(|w| w.node).collect();
        let calls: Vec<_> = writes
            .into_iter()
            .map(|w| {
                self.is_alive(w.node).then(|| {
                    let req = Request::StoreBlock {
                        key: w.key,
                        name: w.name,
                        size: w.size,
                        payload: w.payload,
                    };
                    (w.node, req)
                })
            })
            .collect();
        self.rpc_batch("store_block", &calls)
            .into_iter()
            .zip(nodes)
            .map(|(result, node)| store_outcome(node, result))
            .collect()
    }

    fn fetch_block(&self, node: NodeRef, name: &ObjectName) -> Option<FetchedBlock> {
        self.fetch_blocks(&[(node, name)])
            .into_iter()
            .next()
            .flatten()
    }

    /// Every fetch in one pipelined batch; nodes outside the ring answer
    /// `None` without an RPC.
    fn fetch_blocks(&self, reqs: &[(NodeRef, &ObjectName)]) -> Vec<Option<FetchedBlock>> {
        let calls: Vec<_> = reqs
            .iter()
            .map(|&(node, name)| {
                self.is_alive(node)
                    .then(|| (node, Request::FetchBlock { name: name.clone() }))
            })
            .collect();
        self.rpc_batch("fetch_block", &calls)
            .into_iter()
            .map(|result| match result {
                Some(Ok(Response::Block {
                    block: Some((size, payload)),
                })) => Some(FetchedBlock { size, payload }),
                _ => None,
            })
            .collect()
    }

    fn rollback_block(&mut self, node: NodeRef, name: &ObjectName, size: ByteSize) {
        if !self.is_alive(node) {
            return;
        }
        let _ = self.rpc(
            node,
            "remove_block",
            Request::RemoveBlock {
                name: name.clone(),
                size,
            },
        );
    }

    fn replica_targets(&self, key: Id, k: usize) -> Vec<(Id, NodeRef)> {
        self.ring.k_closest(key, k)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::{NodeConfig, NodeService};
    use crate::server::{NodeServer, RunningNode, ServerConfig};

    fn ring_of(n: usize) -> (Vec<RunningNode>, RingGateway) {
        let mut nodes = Vec::new();
        let mut endpoints = Vec::new();
        for i in 0..n {
            let name = format!("node-{i}");
            let service = NodeService::new(&NodeConfig::named(&name, ByteSize::mb(64)));
            let running = NodeServer::bind("127.0.0.1:0", service, ServerConfig::default())
                .unwrap()
                .spawn();
            endpoints.push(NodeEndpoint {
                node: i,
                id: Id::hash(&name),
                addr: running.local_addr(),
            });
            nodes.push(running);
        }
        let gateway = RingGateway::connect(&endpoints, GatewayConfig::default());
        (nodes, gateway)
    }

    #[test]
    fn gateway_round_trips_blocks_through_live_daemons() {
        let (nodes, mut gw) = ring_of(4);
        let name = ObjectName::block("f", 0, 0);
        let node = gw.route_lookup(name.key()).unwrap();
        gw.store_block(
            node,
            name.key(),
            name.clone(),
            ByteSize::mb(1),
            Some(vec![1, 2, 3]),
        )
        .unwrap();
        let fetched = gw.fetch_block(node, &name).unwrap();
        assert_eq!(fetched.size, ByteSize::mb(1));
        assert_eq!(fetched.payload.as_deref(), Some(&[1u8, 2, 3][..]));
        gw.rollback_block(node, &name, ByteSize::mb(1));
        assert!(gw.fetch_block(node, &name).is_none());
        for n in nodes {
            n.stop().unwrap();
        }
    }

    #[test]
    fn probe_reaches_the_daemon_and_caches_the_report() {
        let (nodes, mut gw) = ring_of(3);
        let key = Id::hash("some-key");
        let (node, free) = gw.probe(key).unwrap();
        assert_eq!(free, ByteSize::mb(64));
        assert_eq!(gw.report_of(node), ByteSize::mb(64));
        assert!(gw.can_store(node, ByteSize::mb(1)));
        assert!(!gw.can_store(node, ByteSize::gb(1)));
        for n in nodes {
            n.stop().unwrap();
        }
    }

    #[test]
    fn mark_failed_removes_the_node_and_yields_a_takeover() {
        let (nodes, mut gw) = ring_of(4);
        assert_eq!(gw.alive_nodes().len(), 4);
        let takeover = gw.mark_failed(2).unwrap();
        assert_eq!(takeover.failed, Id::hash("node-2"));
        assert!(!gw.is_alive(2));
        assert_eq!(gw.alive_nodes().len(), 3);
        assert_eq!(gw.node_count(), 4);
        // Routing never lands on the failed node now.
        for i in 0..32 {
            let n = gw.route_quiet(Id::hash(&format!("k{i}"))).unwrap();
            assert_ne!(n, 2);
        }
        for n in nodes {
            n.stop().unwrap();
        }
    }

    #[test]
    fn dead_nodes_fail_rpcs_gracefully() {
        let (mut nodes, mut gw) = ring_of(3);
        // Kill node 1's server for real, without telling the gateway.
        nodes.remove(1).stop().unwrap();
        assert!(!gw.ping(1));
        assert!(!gw.can_store(1, ByteSize::kb(1)));
        let name = ObjectName::block("f", 0, 0);
        assert!(gw
            .store_block(1, name.key(), name.clone(), ByteSize::kb(1), None)
            .is_err());
        assert!(gw.fetch_block(1, &name).is_none());
        // Errors were counted.
        let export = gw.export_metrics();
        let errs: u64 = export
            .counters
            .iter()
            .filter(|c| c.name == "gateway_rpc_errors")
            .map(|c| c.value)
            .sum();
        assert!(errs >= 2, "expected error counters, got {errs}");
        for n in nodes {
            n.stop().unwrap();
        }
    }

    #[test]
    fn request_ids_join_gateway_and_node_op_logs() {
        let (nodes, gw) = ring_of(2);
        assert!(gw.ping(0));
        assert!(gw.ping(1));
        assert!(gw.ping(0));
        let gw_log = gw.op_log();
        assert_eq!(gw_log.len(), 3);
        let mut node_rids = std::collections::BTreeSet::new();
        for n in 0..2 {
            let stats = gw.get_stats(n).unwrap();
            assert!(stats.op_log.iter().all(|e| e.op != "get_stats"));
            for e in &stats.op_log {
                if let Some(rid) = e.request_id {
                    node_rids.insert(rid);
                }
            }
        }
        // Every gateway entry is attributable to exactly the node-side log.
        for entry in &gw_log {
            assert!(entry.is_ok());
            let rid = entry.request_id.expect("instrumented RPCs carry an id");
            assert!(node_rids.contains(&rid), "rid {rid} missing node-side");
        }
        for n in nodes {
            n.stop().unwrap();
        }
    }

    #[test]
    fn error_counters_carry_the_failure_kind() {
        let (mut nodes, gw) = ring_of(2);
        nodes.remove(1).stop().unwrap();
        assert!(!gw.ping(1));
        let export = gw.export_metrics();
        let io_errs: u64 = export
            .counters
            .iter()
            .filter(|c| {
                c.name == "gateway_rpc_errors"
                    && c.labels.contains(&("kind".to_string(), "io".to_string()))
            })
            .map(|c| c.value)
            .sum();
        assert!(io_errs >= 1, "expected an io-kind error counter");
        // The failed RPC stays attributed in the gateway log via its outcome.
        let last = gw.op_log().pop().unwrap();
        assert_eq!(last.op, "ping");
        assert_eq!(last.outcome, "io");
        for n in nodes {
            n.stop().unwrap();
        }
    }

    #[test]
    fn rpc_metrics_accumulate_counts_and_latency() {
        let (nodes, gw) = ring_of(2);
        assert!(gw.ping(0));
        assert!(gw.ping(0));
        assert!(gw.ping(1));
        let export = gw.export_metrics();
        let ping_total = export
            .counters
            .iter()
            .find(|c| c.name == "gateway_rpc_total" && c.labels.iter().any(|l| l.1 == "ping"))
            .map(|c| c.value);
        assert_eq!(ping_total, Some(3));
        let hist = export
            .histograms
            .iter()
            .find(|h| h.name == "gateway_rpc_latency_ms" && h.labels.iter().any(|l| l.1 == "ping"))
            .expect("ping latency histogram");
        assert_eq!(hist.count, 3);
        assert_eq!(gw.rpc_count(), 3);
        for n in nodes {
            n.stop().unwrap();
        }
    }
}
