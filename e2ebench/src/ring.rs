//! The ring workloads: one closed-loop client driving the unchanged
//! `PeerStripe` client (RS(5,3), overlay-random placement) through a
//! deployment, round after round.
//!
//! A round sets up a fresh deployment, runs the mixed phase (each store is
//! followed by three fetches of files drawn uniformly from those stored so
//! far), then the failure phase: fail one node holding blocks, degraded-read
//! every file, declare the node failed, repair, and re-read every file.  Every
//! byte read back is compared with the file regenerated from the seed.
//!
//! The deployment is either a [`DaemonRing`] — real `peerstripe-node`
//! processes on localhost behind a `RingGateway` — or an [`InProcess`]
//! `StorageCluster`, the same client stack without sockets.

use crate::trace::{Layered, Span, Traced};
use peerstripe_core::{
    CodingPolicy, FileManifest, PeerStripe, PeerStripeConfig, StorageBackend, StorageCluster,
};
use peerstripe_net::{GatewayConfig, LocalRing, NodeStats, RingGateway};
use peerstripe_overlay::{NodeRef, Takeover};
use peerstripe_sim::{ByteSize, DetRng};
use peerstripe_trace::CapacityModel;
use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

/// Fetches issued after every store in the mixed phase.
pub const FETCHES_PER_STORE: usize = 3;

/// The coding policy every ring workload uses.
pub const CODING: CodingPolicy = CodingPolicy::ReedSolomon { data: 5, parity: 3 };

/// Shape of one ring workload.
#[derive(Debug, Clone)]
pub struct RingSpec {
    /// Bytes per file.
    pub file_size: usize,
    /// Files stored per round (bounds daemon memory).
    pub files_per_round: usize,
    /// Rounds per run, at least.
    pub min_rounds: usize,
    /// Nominal seconds one round takes on the reference host; a run of S
    /// seconds runs `max(min_rounds, round(S / round_s))` rounds, a count
    /// fixed by S so every run has the same number of samples.
    pub round_s: f64,
    /// Storage nodes in the deployment.
    pub nodes: usize,
    /// Contributed capacity per node: large enough that every file is one
    /// chunk and no store is refused.
    pub capacity: ByteSize,
}

/// Steal share up to which a round counts as undisturbed.
pub const QUIET_STEAL: f64 = 0.03;

/// How many rounds a pass runs.
#[derive(Debug, Clone, Copy)]
pub struct Schedule {
    /// Rounds whose results are kept.
    pub keep: usize,
    /// Rounds run at most: a pass stops early once `keep` rounds ran with
    /// at most [`QUIET_STEAL`] of the host's CPU time stolen.
    pub max: usize,
    /// Spare rounds (beyond `keep`) start only this many seconds into the
    /// pass, which bounds a run on a busy host.
    pub spare_until_s: f64,
}

impl Schedule {
    /// Exactly `n` rounds.
    pub fn exactly(n: usize) -> Schedule {
        Schedule {
            keep: n,
            max: n,
            spare_until_s: 0.0,
        }
    }
}

impl RingSpec {
    /// The schedule of a run of `seconds`: `round(seconds / round_s)` kept
    /// rounds (a count fixed by `seconds`, so every run has the same number
    /// of samples), with up to half as many again, started within 1.2 ×
    /// `seconds`, to replace disturbed ones.
    pub fn schedule(&self, seconds: f64) -> Schedule {
        let keep = ((seconds / self.round_s).round() as usize).max(self.min_rounds);
        Schedule {
            keep,
            max: keep + keep / 2,
            spare_until_s: 1.2 * seconds,
        }
    }
}

/// Keep the `keep` rounds during which the hypervisor stole the least CPU
/// time from this machine (in their original order).  Other tenants of a
/// shared host slow every process of a round alike; choosing rounds by the
/// kernel's steal counter keeps that noise out of the metrics without
/// looking at the rounds' own timings.
pub fn least_disturbed(rounds: Vec<RoundResult>, keep: usize) -> Vec<RoundResult> {
    let mut order: Vec<usize> = (0..rounds.len()).collect();
    order.sort_by(|&a, &b| rounds[a].steal.total_cmp(&rounds[b].steal));
    let kept: std::collections::BTreeSet<usize> = order.into_iter().take(keep).collect();
    rounds
        .into_iter()
        .enumerate()
        .filter(|(i, _)| kept.contains(i))
        .map(|(_, r)| r)
        .collect()
}

/// A deliberately planted fault, used to prove the correctness gate fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Inject {
    /// No fault.
    None,
    /// Compare the first fetch against contents with one byte flipped.
    Byte,
    /// Fail more nodes than the code tolerates before the degraded reads.
    Chunk,
    /// Compare the insertion against the reference run of another seed.
    Sim,
}

/// The client configuration of the ring workloads.
pub fn client_config() -> PeerStripeConfig {
    PeerStripeConfig {
        coding: CODING,
        ..PeerStripeConfig::default()
    }
}

/// Deterministic contents of file `index` of `round`.
pub fn file_bytes(seed: u64, round: usize, index: usize, len: usize) -> Vec<u8> {
    let mut rng = DetRng::new(seed)
        .fork_indexed("round", round as u64)
        .fork_indexed("file", index as u64);
    let mut out = Vec::with_capacity(len + 8);
    while out.len() < len {
        out.extend_from_slice(&rng.next_u64().to_le_bytes());
    }
    out.truncate(len);
    out
}

fn file_name(round: usize, index: usize) -> String {
    format!("r{round}/f{index:05}.bin")
}

/// One node's state as the harness sees it.
#[derive(Debug, Clone)]
pub struct NodeView {
    /// Bytes charged against the node's capacity.
    pub used: u64,
    /// Contributed capacity.
    pub capacity: u64,
    /// The daemon's own stats (`None` in process).
    pub stats: Option<NodeStats>,
}

/// Where a round's blocks live.
pub trait Deployment {
    /// The backend the client drives (before any tracing wrapper).
    type Base: StorageBackend;
    /// Nodes in the deployment.
    fn node_count(&self) -> usize;
    /// Fail `node` for real, before the client is told (SIGKILL on a ring).
    fn kill(&mut self, base: &mut Self::Base, node: NodeRef) -> Result<(), String>;
    /// Declare `node` failed to the backend and return the key-space takeover.
    fn mark_failed(&mut self, base: &mut Self::Base, node: NodeRef) -> Result<Takeover, String>;
    /// Read one node's state.
    fn scrape(&self, base: &Self::Base, node: NodeRef) -> Result<NodeView, String>;
    /// Calls the backend counted itself, by kind (the transparency check).
    fn call_counts(&self, base: &Self::Base) -> BTreeMap<String, u64>;
    /// Failed backend calls by error kind.
    fn rpc_errors(&self, base: &Self::Base) -> BTreeMap<String, u64>;
    /// Stop every node.
    fn teardown(self, base: &Self::Base);
}

/// Real `peerstripe-node` daemons on localhost.
pub struct DaemonRing {
    ring: LocalRing,
}

impl DaemonRing {
    /// Spawn the daemons and ping each once through a fresh gateway; the
    /// returned seconds cover both.
    pub fn setup(bin: &Path, spec: &RingSpec) -> Result<(DaemonRing, RingGateway, f64), String> {
        let start = Instant::now();
        let ring = LocalRing::spawn(bin, spec.nodes, spec.capacity)
            .map_err(|e| format!("spawning {} daemons: {e}", spec.nodes))?;
        let gateway = ring.gateway(GatewayConfig::default());
        for node in 0..spec.nodes {
            if !gateway.ping(node) {
                return Err(format!("daemon {node} did not answer its ping"));
            }
        }
        Ok((DaemonRing { ring }, gateway, start.elapsed().as_secs_f64()))
    }
}

/// Sum of counter `name` in `stats`, over all label sets.
pub fn counter_sum(stats: &NodeStats, name: &str) -> u64 {
    stats
        .metrics
        .counters
        .iter()
        .filter(|c| c.name == name)
        .map(|c| c.value)
        .sum()
}

fn label<'a>(labels: &'a [(String, String)], key: &str) -> Option<&'a str> {
    labels
        .iter()
        .find(|(k, _)| k == key)
        .map(|(_, v)| v.as_str())
}

impl Deployment for DaemonRing {
    type Base = RingGateway;

    fn node_count(&self) -> usize {
        self.ring.len()
    }

    fn kill(&mut self, _base: &mut RingGateway, node: NodeRef) -> Result<(), String> {
        self.ring
            .kill(node)
            .map_err(|e| format!("kill node {node}: {e}"))
    }

    fn mark_failed(&mut self, base: &mut RingGateway, node: NodeRef) -> Result<Takeover, String> {
        base.mark_failed(node)
            .ok_or_else(|| format!("node {node} is not a ring member"))
    }

    fn scrape(&self, base: &RingGateway, node: NodeRef) -> Result<NodeView, String> {
        let stats = base
            .get_stats(node)
            .map_err(|e| format!("scraping node {node}: {e}"))?;
        Ok(NodeView {
            used: stats.used.as_u64(),
            capacity: stats.capacity.as_u64(),
            stats: Some(stats),
        })
    }

    fn call_counts(&self, base: &RingGateway) -> BTreeMap<String, u64> {
        let mut out = BTreeMap::new();
        for c in base.export_metrics().counters {
            if c.name == "gateway_rpc_total" && c.value > 0 {
                let op = label(&c.labels, "op").unwrap_or("?").to_string();
                *out.entry(op).or_default() += c.value;
            }
        }
        out
    }

    fn rpc_errors(&self, base: &RingGateway) -> BTreeMap<String, u64> {
        let mut out = BTreeMap::new();
        for c in base.export_metrics().counters {
            if c.name == "gateway_rpc_errors" {
                let kind = label(&c.labels, "kind").unwrap_or("?").to_string();
                *out.entry(kind).or_default() += c.value;
            }
        }
        out
    }

    fn teardown(self, base: &RingGateway) {
        for node in 0..self.ring.len() {
            if self.ring.is_running(node) {
                base.shutdown_node(node);
            }
        }
        // Dropping the ring kills and reaps whatever did not exit.
    }
}

/// The in-process `StorageCluster`: the same client stack without sockets.
pub struct InProcess {
    nodes: usize,
    takeovers: BTreeMap<NodeRef, Takeover>,
}

impl InProcess {
    /// Build an `nodes`-node cluster with fixed capacity.
    pub fn setup(spec: &RingSpec, seed: u64) -> (InProcess, StorageCluster, f64) {
        let start = Instant::now();
        let cluster = peerstripe_core::ClusterConfig {
            nodes: spec.nodes,
            capacity: CapacityModel::Fixed(spec.capacity),
            report_fraction: 1.0,
            track_objects: true,
        }
        .build(&mut DetRng::new(seed));
        let deployment = InProcess {
            nodes: spec.nodes,
            takeovers: BTreeMap::new(),
        };
        (deployment, cluster, start.elapsed().as_secs_f64())
    }
}

impl Deployment for InProcess {
    type Base = StorageCluster;

    fn node_count(&self) -> usize {
        self.nodes
    }

    fn kill(&mut self, base: &mut StorageCluster, node: NodeRef) -> Result<(), String> {
        let takeover = base
            .fail_node(node)
            .ok_or_else(|| format!("node {node} has no takeover"))?;
        self.takeovers.insert(node, takeover);
        Ok(())
    }

    fn mark_failed(
        &mut self,
        _base: &mut StorageCluster,
        node: NodeRef,
    ) -> Result<Takeover, String> {
        self.takeovers
            .remove(&node)
            .ok_or_else(|| format!("node {node} was not failed"))
    }

    fn scrape(&self, base: &StorageCluster, node: NodeRef) -> Result<NodeView, String> {
        let n = base.node(node);
        Ok(NodeView {
            used: n.used().as_u64(),
            capacity: n.capacity().as_u64(),
            stats: None,
        })
    }

    fn call_counts(&self, base: &StorageCluster) -> BTreeMap<String, u64> {
        BTreeMap::from([(
            "overlay_lookups".to_string(),
            base.overlay().stats().lookups,
        )])
    }

    fn rpc_errors(&self, _base: &StorageCluster) -> BTreeMap<String, u64> {
        BTreeMap::new()
    }

    fn teardown(self, _base: &StorageCluster) {}
}

/// One chunk as the erasure replay needs it.
#[derive(Debug, Clone)]
pub struct ChunkCase {
    /// Round the file was stored in.
    pub round: usize,
    /// File index within the round.
    pub file: usize,
    /// Chunk length in bytes (files are one chunk).
    pub len: usize,
    /// Placed-object indices the failed node held.
    pub lost: Vec<u32>,
}

/// Per-op (latency sum ms, count) from daemon histograms.
pub type ServiceTimes = BTreeMap<String, (f64, u64)>;

/// Everything one round measured.
#[derive(Debug, Clone, Default)]
pub struct RoundResult {
    /// Round number (0 is the warm-up).
    pub round: usize,
    /// Seconds to set the deployment up.
    pub setup_s: f64,
    /// Store latencies, ms.
    pub store_ms: Vec<f64>,
    /// Healthy fetch latencies, ms.
    pub fetch_ms: Vec<f64>,
    /// Degraded fetch latencies, ms.
    pub degraded_ms: Vec<f64>,
    /// User bytes stored.
    pub stored_bytes: u64,
    /// User bytes moved in the mixed phase (stored plus fetched).
    pub mixed_bytes: u64,
    /// Seconds spent inside mixed-phase operations.
    pub mixed_s: f64,
    /// Seconds `handle_node_failure` took.
    pub repair_s: f64,
    /// Bytes the repair regenerated.
    pub bytes_regenerated: u64,
    /// Blocks the repair regenerated.
    pub blocks_regenerated: u64,
    /// Σ node `used` after the mixed phase.
    pub used: u64,
    /// Σ node capacity.
    pub capacity: u64,
    /// Σ daemon payload bytes in + out over the mixed phase.
    pub wire_bytes: u64,
    /// Daemon service times (victim pre-kill, survivors at round end).
    pub service: ServiceTimes,
    /// Non-empty chunks over all stored files.
    pub chunks: u64,
    /// Zero-sized chunks over all stored files.
    pub zero_chunks: u64,
    /// Manifests before and after repair, one line per file.
    pub placements: Vec<String>,
    /// Backend call counts.
    pub calls: BTreeMap<String, u64>,
    /// Backend errors by kind.
    pub rpc_errors: BTreeMap<String, u64>,
    /// The failed node.
    pub victim: NodeRef,
    /// Chunks for the erasure replay.
    pub cases: Vec<ChunkCase>,
    /// Spans (traced passes only).
    pub spans: Vec<Span>,
    /// User operations attempted.
    pub attempted: u64,
    /// Share of host CPU time the hypervisor stole during the round.
    pub steal: f64,
    /// Nodes holding blocks that could not be failed without losing a
    /// chunk (they hold more blocks of some chunk than the code tolerates).
    pub unsafe_holders: usize,
    /// Chunks with more blocks on one node than the code tolerates losing.
    pub fragile_chunks: u64,
}

/// Time one user operation, bracketing it for the tracer.
fn timed_op<B: Layered, T>(
    client: &mut PeerStripe<B>,
    kind: &'static str,
    f: impl FnOnce(&mut PeerStripe<B>) -> T,
) -> (T, f64) {
    let start = Instant::now();
    client.backend().begin_op(kind);
    let value = f(client);
    client.backend().end_op();
    (value, start.elapsed().as_secs_f64() * 1e3)
}

/// Compare `got` with the seed's contents of the file.
fn verify(
    got: Option<Vec<u8>>,
    what: &str,
    seed: u64,
    round: usize,
    index: usize,
    len: usize,
    corrupt: bool,
) -> Result<(), String> {
    let Some(got) = got else {
        return Err(format!(
            "{what} of {} returned nothing",
            file_name(round, index)
        ));
    };
    let mut want = file_bytes(seed, round, index, len);
    if corrupt {
        want[len / 2] ^= 0x01;
    }
    if got != want {
        let first = got.iter().zip(&want).position(|(a, b)| a != b);
        return Err(format!(
            "{what} of {} returned wrong bytes ({} bytes, want {}, first difference at {first:?})",
            file_name(round, index),
            got.len(),
            want.len()
        ));
    }
    Ok(())
}

/// One line per manifest: chunk sizes and every block's name and node.
fn placement_lines(manifests: &[&FileManifest], tag: &str) -> Vec<String> {
    manifests
        .iter()
        .map(|m| {
            let mut line = format!("{tag} {}", m.name);
            for c in &m.chunks {
                line.push_str(&format!(" | c{}:{}", c.chunk, c.size.as_u64()));
                for b in &c.blocks {
                    line.push_str(&format!(" {}@{}", b.name, b.node));
                }
            }
            line
        })
        .collect()
}

fn add_service(stats: &NodeStats, into: &mut ServiceTimes) {
    for h in &stats.metrics.histograms {
        if h.name == "node_request_latency_ms" && h.count > 0 {
            let op = label(&h.labels, "op").unwrap_or("?").to_string();
            let e = into.entry(op).or_default();
            e.0 += h.sum;
            e.1 += h.count;
        }
    }
}

/// The failed node: drawn by the seed among the nodes holding blocks whose
/// loss every stored chunk tolerates.
fn pick_victim<B: StorageBackend>(
    client: &PeerStripe<B>,
    nodes: usize,
    rng: &mut DetRng,
) -> Result<(NodeRef, usize), String> {
    let tolerable = CODING.tolerable_losses();
    let mut holders = Vec::new();
    let mut unsafe_holders = 0;
    for node in 0..nodes {
        let held: Vec<usize> = client
            .manifests()
            .iter()
            .flat_map(|m| m.chunks.iter().map(move |c| c.blocks_on(node).count()))
            .collect();
        if held.iter().all(|&n| n == 0) {
            continue;
        }
        if held.iter().all(|&n| n <= tolerable) {
            holders.push(node);
        } else {
            unsafe_holders += 1;
        }
    }
    if holders.is_empty() {
        return Err(format!(
            "every node holding blocks holds more than {tolerable} blocks of some chunk"
        ));
    }
    Ok((holders[rng.index(holders.len())], unsafe_holders))
}

/// Run one round on a freshly set-up deployment.
pub fn run_round<D, B>(
    spec: &RingSpec,
    seed: u64,
    round: usize,
    dep: &mut D,
    client: &mut PeerStripe<B>,
    inject: Inject,
) -> Result<RoundResult, String>
where
    D: Deployment,
    B: Layered<Base = D::Base>,
{
    let mut res = RoundResult::default();
    let mut rng = DetRng::new(seed).fork_indexed("ops", round as u64);
    let size = spec.file_size;
    let files = spec.files_per_round;
    let mut corrupt_next = inject == Inject::Byte;

    // Mixed phase: 1 store to FETCHES_PER_STORE fetches, closed loop.
    for i in 0..files {
        let data = file_bytes(seed, round, i, size);
        let name = file_name(round, i);
        let (outcome, ms) = timed_op(client, "store", |c| c.store_data(&name, &data));
        res.attempted += 1;
        if !outcome.is_stored() {
            return Err(format!("store of {name} failed: {outcome:?}"));
        }
        res.store_ms.push(ms);
        res.stored_bytes += size as u64;
        res.mixed_s += ms / 1e3;
        drop(data);
        for _ in 0..FETCHES_PER_STORE {
            let j = rng.index(i + 1);
            let target = file_name(round, j);
            let (got, ms) = timed_op(client, "fetch", |c| c.retrieve_data(&target));
            res.attempted += 1;
            verify(
                got,
                "fetch",
                seed,
                round,
                j,
                size,
                std::mem::take(&mut corrupt_next),
            )?;
            res.fetch_ms.push(ms);
            res.mixed_s += ms / 1e3;
        }
    }
    res.mixed_bytes = res.stored_bytes * (1 + FETCHES_PER_STORE as u64);

    let mut manifests: Vec<&FileManifest> = client.manifests().iter().collect();
    manifests.sort_by(|a, b| a.name.cmp(&b.name));
    for m in &manifests {
        let data_chunks = m.chunks.iter().filter(|c| !c.size.is_zero()).count() as u64;
        if data_chunks != 1 {
            return Err(format!(
                "{} was split into {data_chunks} chunks; the workload needs one chunk per file",
                m.name
            ));
        }
        res.chunks += data_chunks;
        res.zero_chunks += m.chunks.len() as u64 - data_chunks;
        for c in &m.chunks {
            let mut per_node: BTreeMap<NodeRef, usize> = BTreeMap::new();
            for b in &c.blocks {
                *per_node.entry(b.node).or_default() += 1;
            }
            if per_node.values().any(|&n| n > CODING.tolerable_losses()) {
                res.fragile_chunks += 1;
            }
        }
    }
    res.placements = placement_lines(&manifests, "stored");

    // Scrape every node before the failure: the victim's counters die with it.
    let nodes = dep.node_count();
    let mut before = Vec::with_capacity(nodes);
    for node in 0..nodes {
        before.push(dep.scrape(client.backend().base(), node)?);
    }
    res.used = before.iter().map(|v| v.used).sum();
    res.capacity = before.iter().map(|v| v.capacity).sum();
    res.wire_bytes = before
        .iter()
        .filter_map(|v| v.stats.as_ref())
        .map(|s| counter_sum(s, "node_bytes_in_total") + counter_sum(s, "node_bytes_out_total"))
        .sum();

    // Failure phase.
    let (victim, unsafe_holders) = pick_victim(client, nodes, &mut rng)?;
    res.victim = victim;
    res.unsafe_holders = unsafe_holders;
    for i in 0..files {
        let m = client
            .manifest(&file_name(round, i))
            .ok_or_else(|| format!("no manifest for {}", file_name(round, i)))?;
        for c in m.chunks.iter().filter(|c| !c.size.is_zero()) {
            res.cases.push(ChunkCase {
                round,
                file: i,
                len: c.size.as_u64() as usize,
                lost: (0..c.blocks.len() as u32)
                    .filter(|&b| c.blocks[b as usize].node == victim)
                    .collect(),
            });
        }
    }
    dep.kill(client.backend_mut().base_mut(), victim)?;
    if inject == Inject::Chunk {
        // Fail further nodes holding blocks of the first file until it has
        // lost more blocks than the code tolerates.
        let holders: Vec<NodeRef> = client
            .manifest(&file_name(round, 0))
            .map(|m| m.all_blocks().map(|b| b.node).collect())
            .unwrap_or_default();
        let mut dead = vec![victim];
        for node in holders {
            let lost = client.manifest(&file_name(round, 0)).map_or(0, |m| {
                m.all_blocks().filter(|b| dead.contains(&b.node)).count()
            });
            if lost > CODING.tolerable_losses() {
                break;
            }
            if !dead.contains(&node) {
                dep.kill(client.backend_mut().base_mut(), node)?;
                dead.push(node);
            }
        }
    }
    for i in 0..files {
        let target = file_name(round, i);
        let (got, ms) = timed_op(client, "degraded_fetch", |c| c.retrieve_data(&target));
        res.attempted += 1;
        verify(got, "degraded fetch", seed, round, i, size, false)?;
        res.degraded_ms.push(ms);
    }
    let takeover = dep.mark_failed(client.backend_mut().base_mut(), victim)?;
    let (report, ms) = timed_op(client, "repair", |c| {
        c.handle_node_failure(victim, &takeover)
    });
    res.attempted += 1;
    if report.chunks_lost != 0 {
        return Err(format!(
            "repair lost {} chunks ({} bytes)",
            report.chunks_lost, report.bytes_lost
        ));
    }
    res.repair_s = ms / 1e3;
    res.bytes_regenerated = report.bytes_regenerated.as_u64();
    res.blocks_regenerated = report.blocks_regenerated;
    for i in 0..files {
        let target = file_name(round, i);
        let (got, _) = timed_op(client, "reread", |c| c.retrieve_data(&target));
        res.attempted += 1;
        verify(got, "post-repair read", seed, round, i, size, false)?;
    }
    let mut repaired: Vec<&FileManifest> = client.manifests().iter().collect();
    repaired.sort_by(|a, b| a.name.cmp(&b.name));
    res.placements
        .extend(placement_lines(&repaired, "repaired"));

    // Daemon service times: the victim's pre-kill scrape, survivors' now.
    for (node, pre_kill) in before.iter().enumerate() {
        let view = if node == victim {
            pre_kill.clone()
        } else {
            dep.scrape(client.backend().base(), node)?
        };
        if let Some(stats) = &view.stats {
            add_service(stats, &mut res.service);
        }
    }
    res.calls = dep.call_counts(client.backend().base());
    res.rpc_errors = dep.rpc_errors(client.backend().base());
    res.spans = client.backend().take_spans().unwrap_or_default();
    Ok(res)
}

/// Run one unmeasured warm-up round (a quarter of the files) and then the
/// scheduled rounds, each on a fresh deployment from `setup`.
pub fn run_pass<D, S>(
    spec: &RingSpec,
    seed: u64,
    schedule: Schedule,
    traced: bool,
    inject: Inject,
    mut setup: S,
) -> Result<Vec<RoundResult>, String>
where
    D: Deployment,
    S: FnMut(usize) -> Result<(D, D::Base, f64), String>,
    D::Base: Layered<Base = D::Base>,
{
    let start = Instant::now();
    let mut out: Vec<RoundResult> = Vec::with_capacity(schedule.max);
    for round in 0..=schedule.max {
        let quiet = out.iter().filter(|r| r.steal <= QUIET_STEAL).count();
        let spare_time = start.elapsed().as_secs_f64() < schedule.spare_until_s;
        if out.len() >= schedule.keep && (quiet >= schedule.keep || !spare_time) {
            break;
        }
        let shape = if round == 0 {
            RingSpec {
                files_per_round: spec.files_per_round.div_ceil(4),
                ..spec.clone()
            }
        } else {
            spec.clone()
        };
        let ticks = crate::host::cpu_ticks();
        let (mut dep, base, setup_s) = setup(round)?;
        let result = if traced {
            let mut client = PeerStripe::new(Traced::new(base), client_config());
            let r = run_round(&shape, seed, round, &mut dep, &mut client, inject);
            dep.teardown(client.backend().base());
            r
        } else {
            let mut client = PeerStripe::new(base, client_config());
            let r = run_round(&shape, seed, round, &mut dep, &mut client, inject);
            dep.teardown(client.backend().base());
            r
        };
        let mut result = result.map_err(|e| format!("round {round}: {e}"))?;
        result.round = round;
        result.setup_s = setup_s;
        if let (Some((a0, s0)), Some((a1, s1))) = (ticks, crate::host::cpu_ticks()) {
            result.steal = (s1 - s0) as f64 / (a1 - a0).max(1) as f64;
        }
        if round > 0 {
            out.push(result);
        }
    }
    Ok(out)
}

/// First difference between two passes' placements or call counts, if any.
pub fn transparency_diff(untraced: &[RoundResult], traced: &[RoundResult]) -> Option<String> {
    if untraced.len() != traced.len() {
        return Some(format!(
            "{} untraced rounds vs {} traced",
            untraced.len(),
            traced.len()
        ));
    }
    for (r, (a, b)) in untraced.iter().zip(traced).enumerate() {
        if let Some((x, y)) = a.placements.iter().zip(&b.placements).find(|(x, y)| x != y) {
            return Some(format!(
                "round {r}: placement differs:\n  untraced {x}\n  traced   {y}"
            ));
        }
        if a.placements.len() != b.placements.len() {
            return Some(format!("round {r}: manifest count differs"));
        }
        if a.calls != b.calls {
            return Some(format!(
                "round {r}: call counts differ: untraced {:?} vs traced {:?}",
                a.calls, b.calls
            ));
        }
    }
    None
}
