//! The gateway's pipelined batches against in-process daemons.
//!
//! A pipelined batch must make exactly the calls the sequential trait
//! defaults make, a refusal in the middle of a chunk's batch must roll the
//! whole chunk back, and a node that stops answering must cost a batch one
//! timeout without holding up calls to healthy nodes.

use peerstripe_core::{
    ChunkAllocationTable, ClusterStoreError, CodingPolicy, FetchedBlock, ObjectName, PeerStripe,
    PeerStripeConfig, StorageBackend,
};
use peerstripe_net::{
    GatewayConfig, NodeConfig, NodeEndpoint, NodeServer, NodeService, RingGateway, RunningNode,
    ServerConfig,
};
use peerstripe_overlay::{Id, NodeRef};
use peerstripe_placement::{ClusterView, ProbeView};
use peerstripe_sim::{ByteSize, DetRng};
use std::collections::BTreeMap;
use std::net::{SocketAddr, TcpListener};
use std::time::{Duration, Instant};

const NODES: usize = 8;

fn endpoint(node: NodeRef, addr: SocketAddr) -> NodeEndpoint {
    NodeEndpoint {
        node,
        id: Id::hash(&format!("node-{node}")),
        addr,
    }
}

/// In-process daemons `node-0..` with the given capacities.
fn spawn(capacities: &[ByteSize]) -> (Vec<Option<RunningNode>>, Vec<NodeEndpoint>) {
    let mut nodes = Vec::new();
    let mut endpoints = Vec::new();
    for (i, &capacity) in capacities.iter().enumerate() {
        let service = NodeService::new(&NodeConfig::named(&format!("node-{i}"), capacity));
        let running = NodeServer::bind("127.0.0.1:0", service, ServerConfig::default())
            .unwrap()
            .spawn();
        endpoints.push(endpoint(i, running.local_addr()));
        nodes.push(Some(running));
    }
    (nodes, endpoints)
}

fn stop_all(nodes: Vec<Option<RunningNode>>) {
    for node in nodes.into_iter().flatten() {
        node.stop().unwrap();
    }
}

fn client_config() -> PeerStripeConfig {
    PeerStripeConfig {
        coding: CodingPolicy::ReedSolomon { data: 5, parity: 3 },
        ..PeerStripeConfig::default()
    }
}

fn file_bytes(index: usize) -> Vec<u8> {
    let mut rng = DetRng::new(7).fork_indexed("file", index as u64);
    (0..20_000 + 3_000 * index)
        .map(|_| rng.next_u32() as u8)
        .collect()
}

/// Sum of the gateway counter `name` per label set, as `op[/kind]` keys.
fn counters(gw: &RingGateway, name: &str) -> BTreeMap<String, u64> {
    let mut out = BTreeMap::new();
    for c in gw.export_metrics().counters {
        if c.name == name && c.value > 0 {
            let label = |key: &str| {
                c.labels
                    .iter()
                    .find(|(k, _)| k == key)
                    .map(|(_, v)| v.clone())
            };
            let key = match (label("op"), label("kind")) {
                (Some(op), Some(kind)) => format!("{op}/{kind}"),
                (op, _) => op.unwrap_or_default(),
            };
            *out.entry(key).or_default() += c.value;
        }
    }
    out
}

/// A backend that forwards only the single-call verbs, so the client runs on
/// the trait's sequential batch defaults.
struct Sequential(RingGateway);

impl ClusterView for Sequential {
    fn route_quiet(&self, key: Id) -> Option<NodeRef> {
        self.0.route_quiet(key)
    }
    fn is_alive(&self, node: NodeRef) -> bool {
        self.0.is_alive(node)
    }
    fn can_store(&self, node: NodeRef, size: ByteSize) -> bool {
        self.0.can_store(node, size)
    }
    fn report_of(&self, node: NodeRef) -> ByteSize {
        self.0.report_of(node)
    }
    fn node_count(&self) -> usize {
        self.0.node_count()
    }
    fn alive_nodes(&self) -> Vec<NodeRef> {
        self.0.alive_nodes()
    }
}

impl ProbeView for Sequential {
    fn probe(&mut self, key: Id) -> Option<(NodeRef, ByteSize)> {
        self.0.probe(key)
    }
}

impl StorageBackend for Sequential {
    fn route_lookup(&mut self, key: Id) -> Option<NodeRef> {
        self.0.route_lookup(key)
    }
    fn store_block(
        &mut self,
        node: NodeRef,
        key: Id,
        name: ObjectName,
        size: ByteSize,
        payload: Option<Vec<u8>>,
    ) -> Result<NodeRef, ClusterStoreError> {
        self.0.store_block(node, key, name, size, payload)
    }
    fn fetch_block(&self, node: NodeRef, name: &ObjectName) -> Option<FetchedBlock> {
        self.0.fetch_block(node, name)
    }
    fn rollback_block(&mut self, node: NodeRef, name: &ObjectName, size: ByteSize) {
        self.0.rollback_block(node, name, size)
    }
    fn replica_targets(&self, key: Id, k: usize) -> Vec<(Id, NodeRef)> {
        self.0.replica_targets(key, k)
    }
}

/// Access to the gateway under either backend.
trait HasGateway: StorageBackend {
    fn gateway(&self) -> &RingGateway;
    fn gateway_mut(&mut self) -> &mut RingGateway;
}

impl HasGateway for RingGateway {
    fn gateway(&self) -> &RingGateway {
        self
    }
    fn gateway_mut(&mut self) -> &mut RingGateway {
        self
    }
}

impl HasGateway for Sequential {
    fn gateway(&self) -> &RingGateway {
        &self.0
    }
    fn gateway_mut(&mut self) -> &mut RingGateway {
        &mut self.0
    }
}

/// Everything one run of the scenario left behind.
#[derive(Debug, PartialEq)]
struct Outcome {
    manifests: Vec<String>,
    calls: BTreeMap<String, u64>,
    errors: BTreeMap<String, u64>,
    bytes_read: u64,
}

/// Store, fetch, kill one node, degraded-read, repair and re-read 20 files.
fn run_scenario<B: HasGateway>(
    backend: B,
    mut nodes: Vec<Option<RunningNode>>,
    files: usize,
) -> Outcome {
    let mut client = PeerStripe::new(backend, client_config());
    let name = |i: usize| format!("f{i:02}");
    let mut bytes_read = 0u64;
    let mut read_all = |client: &PeerStripe<B>| {
        for i in 0..files {
            let got = client.retrieve_data(&name(i)).expect("file reads back");
            assert_eq!(got, file_bytes(i), "{}", name(i));
            bytes_read += got.len() as u64;
        }
    };
    for i in 0..files {
        assert!(client.store_data(&name(i), &file_bytes(i)).is_stored());
    }
    read_all(&client);

    // The victim: the node holding the most blocks whose loss every chunk
    // tolerates.
    let tolerable = client.config().coding.tolerable_losses();
    let victim = (0..NODES)
        .filter(|&n| {
            client
                .manifests()
                .iter()
                .all(|m| m.chunks.iter().all(|c| c.blocks_on(n).count() <= tolerable))
        })
        .max_by_key(|&n| {
            client
                .manifests()
                .iter()
                .map(|m| m.all_blocks().filter(|b| b.node == n).count())
                .sum::<usize>()
        })
        .expect("a node whose loss every chunk survives");
    nodes[victim].take().unwrap().stop().unwrap();
    read_all(&client);
    let takeover = client
        .backend_mut()
        .gateway_mut()
        .mark_failed(victim)
        .unwrap();
    let report = client.handle_node_failure(victim, &takeover);
    assert_eq!(report.chunks_lost, 0);
    assert!(report.blocks_regenerated > 0);
    read_all(&client);

    let mut manifests: Vec<String> = client
        .manifests()
        .iter()
        .map(|m| {
            let mut line = m.name.clone();
            for c in &m.chunks {
                line.push_str(&format!(" | c{}:{}", c.chunk, c.size.as_u64()));
                for b in &c.blocks {
                    line.push_str(&format!(" {}@{}:{}", b.name, b.node, b.size.as_u64()));
                }
            }
            line.push_str(&format!(" | cat {:?}", m.cat_nodes));
            line
        })
        .collect();
    manifests.sort();
    let gw = client.backend().gateway();
    let outcome = Outcome {
        manifests,
        calls: counters(gw, "gateway_rpc_total"),
        errors: counters(gw, "gateway_rpc_errors"),
        bytes_read,
    };
    stop_all(nodes);
    outcome
}

#[test]
fn pipelined_batches_make_exactly_the_sequential_calls() {
    let capacities = vec![ByteSize::mb(64); NODES];
    let (nodes, endpoints) = spawn(&capacities);
    let sequential = run_scenario(
        Sequential(RingGateway::connect(&endpoints, GatewayConfig::default())),
        nodes,
        20,
    );
    let (nodes, endpoints) = spawn(&capacities);
    let pipelined = run_scenario(
        RingGateway::connect(&endpoints, GatewayConfig::default()),
        nodes,
        20,
    );
    assert!(sequential.calls.get("store_block").is_some_and(|&n| n > 0));
    assert!(sequential.errors.contains_key("fetch_block/io"));
    assert_eq!(sequential, pipelined);
}

#[test]
fn a_refusal_mid_batch_rolls_the_whole_chunk_back() {
    // Find a file whose first chunk routes exactly two of its eight blocks to
    // one node, then make that node too small to hold both.  Routing is
    // local, so a gateway over unused addresses answers it.
    let unused: SocketAddr = "127.0.0.1:9".parse().unwrap();
    let router = RingGateway::connect(
        &(0..NODES).map(|n| endpoint(n, unused)).collect::<Vec<_>>(),
        GatewayConfig::default(),
    );
    let (file, small) = (0..)
        .find_map(|i| {
            let file = format!("refused-{i}");
            let mut per_node = BTreeMap::new();
            for ecb in 0..8 {
                let node = router.route_quiet(ObjectName::block(&file, 0, ecb).key())?;
                *per_node.entry(node).or_insert(0) += 1;
            }
            let small = per_node.into_iter().find(|&(_, n)| n == 2)?.0;
            Some((file, small))
        })
        .unwrap();
    let mut capacities = vec![ByteSize::mb(64); NODES];
    // One ~41 KB placed block of the 200 KB file fits, two do not.
    capacities[small] = ByteSize::kb(60);
    let (nodes, endpoints) = spawn(&capacities);
    let mut client = PeerStripe::new(
        RingGateway::connect(&endpoints, GatewayConfig::default()),
        client_config(),
    );
    let data = file_bytes(60);
    assert_eq!(data.len(), 200_000);
    let used_before: Vec<u64> = (0..NODES)
        .map(|n| client.backend().get_stats(n).unwrap().used.as_u64())
        .collect();

    assert!(client.store_data(&file, &data).is_stored());

    let manifest = client.manifest(&file).unwrap();
    assert!(manifest.chunks[0].size.is_zero(), "the refused chunk");
    assert!(manifest.chunks[0].blocks.is_empty());
    assert!(manifest.chunks.iter().any(|c| !c.size.is_zero()));
    let gw = client.backend();
    assert_eq!(
        counters(gw, "gateway_rpc_errors").get("store_block/node_insufficient_space"),
        Some(&1),
        "one write of the batch was refused"
    );
    assert_eq!(
        counters(gw, "gateway_rpc_total").get("remove_block"),
        Some(&7),
        "every other write of the batch landed and was rolled back"
    );
    // Each daemon holds exactly what the manifest places on it: the refused
    // chunk left nothing behind.
    let sizes: Vec<ByteSize> = manifest.chunks.iter().map(|c| c.size).collect();
    let cat_size = ChunkAllocationTable::from_chunk_sizes(&sizes)
        .serialized_size()
        .as_u64();
    for (n, &before) in used_before.iter().enumerate() {
        let blocks: u64 = manifest
            .all_blocks()
            .filter(|b| b.node == n)
            .map(|b| b.size.as_u64())
            .sum();
        let cats = manifest.cat_nodes.iter().filter(|&&c| c == n).count() as u64;
        let used = gw.get_stats(n).unwrap().used.as_u64();
        assert_eq!(used, before + blocks + cats * cat_size, "node {n}");
    }
    assert_eq!(client.retrieve_data(&file).unwrap(), data);
    stop_all(nodes);
}

/// Three healthy daemons plus node 3, whose listener completes connections
/// but never reads or answers.
fn ring_with_a_stalled_node(
    timeout: Duration,
) -> (Vec<Option<RunningNode>>, TcpListener, RingGateway) {
    let (nodes, mut endpoints) = spawn(&[ByteSize::mb(64); 3]);
    let stalled = TcpListener::bind("127.0.0.1:0").unwrap();
    endpoints.push(endpoint(3, stalled.local_addr().unwrap()));
    let gateway = RingGateway::connect(&endpoints, GatewayConfig { timeout });
    (nodes, stalled, gateway)
}

#[test]
fn a_stalled_node_costs_a_batch_one_timeout() {
    let timeout = Duration::from_millis(200);
    let (nodes, _stalled, mut gw) = ring_with_a_stalled_node(timeout);
    let names: Vec<ObjectName> = (0..5).map(|i| ObjectName::block("f", 0, i)).collect();
    for (i, node) in [(0, 0), (2, 1), (4, 2)] {
        let name = names[i].clone();
        gw.store_block(
            node,
            name.key(),
            name,
            ByteSize::kb(1),
            Some(vec![i as u8; 8]),
        )
        .unwrap();
    }
    let reqs: Vec<(NodeRef, &ObjectName)> = vec![
        (0, &names[0]),
        (3, &names[1]),
        (1, &names[2]),
        (3, &names[3]),
        (2, &names[4]),
    ];
    let start = Instant::now();
    let fetched = gw.fetch_blocks(&reqs);
    let elapsed = start.elapsed();

    for (i, block) in fetched.iter().enumerate() {
        match reqs[i].0 {
            3 => assert!(block.is_none(), "request {i} hit the stalled node"),
            _ => assert_eq!(
                block.as_ref().and_then(|b| b.payload.clone()),
                Some(vec![i as u8; 8]),
                "request {i}"
            ),
        }
    }
    assert!(
        elapsed >= timeout,
        "the stalled node was waited on: {elapsed:?}"
    );
    assert!(
        elapsed < timeout * 7 / 4,
        "two calls on a stalled node cost about one timeout, took {elapsed:?}"
    );
    assert_eq!(
        counters(&gw, "gateway_rpc_errors").get("fetch_block/io"),
        Some(&2),
        "both timed-out calls are counted"
    );
    stop_all(nodes);
}

#[test]
fn a_stalled_node_does_not_hold_up_calls_to_healthy_ones() {
    let timeout = Duration::from_millis(400);
    let (nodes, _stalled, gw) = ring_with_a_stalled_node(timeout);
    std::thread::scope(|s| {
        let stalled_ping = s.spawn(|| gw.ping(3));
        // Let the stalled call get onto the wire first.
        std::thread::sleep(Duration::from_millis(50));
        let start = Instant::now();
        assert!(gw.ping(0));
        let elapsed = start.elapsed();
        assert!(
            elapsed < Duration::from_millis(150),
            "a healthy ping waited {elapsed:?} behind the stalled one"
        );
        assert!(!stalled_ping.join().unwrap());
    });
    stop_all(nodes);
}
