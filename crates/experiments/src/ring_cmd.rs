//! `repro ring` — the networked deployment harness.
//!
//! Spawns a localhost ring of real `peerstripe-node` daemon processes,
//! drives the unchanged `PeerStripe` client + placement + erasure stack
//! against them through the TCP gateway, kills one daemon, and verifies the
//! file survives a degraded read and the repair path.  The report carries
//! the gateway's per-RPC counters and latency histograms, so the run doubles
//! as a localhost RPC benchmark.

use crate::Scale;
use peerstripe_core::{CodingPolicy, PeerStripe, PeerStripeConfig};
use peerstripe_net::{node_binary, GatewayConfig, LocalRing, NodeStats, RingGateway};
use peerstripe_overlay::NodeRef;
use peerstripe_sim::{ByteSize, DetRng};
use peerstripe_telemetry::{HistogramExport, RegistryExport};
use serde::Serialize;
use std::collections::{BTreeMap, BTreeSet};

/// Parameters of one `repro ring` run.
#[derive(Debug, Clone)]
pub struct RingCmdConfig {
    /// Number of daemon processes to spawn.
    pub nodes: usize,
    /// Contributed capacity per daemon.
    pub node_capacity: ByteSize,
    /// Size of the file stored through the gateway.
    pub file_size: ByteSize,
    /// Seed for the file's deterministic contents.
    pub seed: u64,
}

impl RingCmdConfig {
    /// Ring sizing per scale: enough daemons that a (5, 3) Reed-Solomon
    /// chunk always spreads wider than any single failure.
    pub fn at_scale(scale: Scale, seed: u64) -> Self {
        let (nodes, file_size) = match scale {
            Scale::Small => (8, ByteSize::kb(256)),
            Scale::Medium => (12, ByteSize::mb(1)),
            Scale::Paper => (16, ByteSize::mb(4)),
        };
        RingCmdConfig {
            nodes,
            node_capacity: ByteSize::mb(64),
            file_size,
            seed,
        }
    }
}

/// One operation's aggregated RPC telemetry.
#[derive(Debug, Clone, Serialize)]
pub struct RpcStat {
    /// Wire operation name (`store_block`, `fetch_block`, ...).
    pub op: String,
    /// RPCs issued.
    pub calls: u64,
    /// RPCs that failed (transport or protocol).
    pub errors: u64,
    /// Mean round-trip latency in milliseconds.
    pub mean_ms: f64,
}

/// How far each operation's RPCs overlapped: the summed latency of the
/// gateway RPCs the operation issued divided by its wall time.  1.0 means
/// strictly one RPC after another (plus client work); above 1.0 the gateway
/// had several RPCs in flight at once.  Informational, not a gate.
#[derive(Debug, Clone, Copy, Serialize)]
pub struct RpcOverlap {
    /// The store.
    pub store: f64,
    /// The healthy fetch.
    pub fetch: f64,
    /// The repair path.
    pub repair: f64,
}

/// One daemon's server-side view of the run.
#[derive(Debug, Clone, Serialize)]
pub struct NodeSideStats {
    /// The node's reference.
    pub node: NodeRef,
    /// The node's name under the `node-<i>` convention.
    pub name: String,
    /// The daemon's own stats snapshot — for the killed victim, the last
    /// scrape taken before the SIGKILL; for survivors, a post-repair scrape.
    pub stats: NodeStats,
}

/// Everything one `repro ring` run measured.
#[derive(Debug, Clone, Serialize)]
pub struct RingReport {
    /// Daemons spawned.
    pub nodes: usize,
    /// Bytes stored through the gateway.
    pub file_bytes: u64,
    /// Which daemon was killed.
    pub victim: NodeRef,
    /// Wall-clock milliseconds to store the file.
    pub store_ms: f64,
    /// Wall-clock milliseconds to read it back with all daemons live.
    pub fetch_ms: f64,
    /// Wall-clock milliseconds to read it back with the victim dead.
    pub degraded_fetch_ms: f64,
    /// Wall-clock milliseconds for the repair path.
    pub repair_ms: f64,
    /// Blocks the repair path regenerated.
    pub blocks_regenerated: u64,
    /// Chunks the repair path could not recover (must be 0).
    pub chunks_lost: u64,
    /// Whether every read returned the original bytes.
    pub recovered: bool,
    /// Per-operation RPC counters and mean latencies.
    pub rpc: Vec<RpcStat>,
    /// Summed RPC latency over wall time, per operation.
    pub rpc_overlap: RpcOverlap,
    /// Full metrics-registry export (counters + latency histograms).
    pub metrics: RegistryExport,
    /// Every daemon's server-side stats (victim scraped pre-kill).
    pub node_stats: Vec<NodeSideStats>,
    /// RPCs the gateway logged (shutdowns excluded by construction).
    pub gateway_rpcs_logged: u64,
    /// Successful gateway RPCs whose request id joins no node op-log entry.
    /// Must be 0: every RPC is attributed either by a node-side log entry or
    /// by its own error kind.
    pub unattributed_rpcs: u64,
}

/// Scrape `nodes` into `snapshots`, overwriting earlier scrapes per node.
fn scrape_into(
    gateway: &RingGateway,
    nodes: impl Iterator<Item = NodeRef>,
    snapshots: &mut BTreeMap<NodeRef, NodeStats>,
) -> Result<(), String> {
    for node in nodes {
        let stats = gateway
            .get_stats(node)
            .map_err(|e| format!("scraping node {node}: {e}"))?;
        snapshots.insert(node, stats);
    }
    Ok(())
}

/// Count successful gateway op-log entries whose request id appears in no
/// node op log — the networked analogue of the unattributed-loss check.
fn unattributed_count(
    gateway_log: &[peerstripe_net::OpLogEntry],
    snapshots: &BTreeMap<NodeRef, NodeStats>,
) -> u64 {
    let node_rids: BTreeSet<u64> = snapshots
        .values()
        .flat_map(|s| s.op_log.iter().filter_map(|e| e.request_id))
        .collect();
    gateway_log
        .iter()
        .filter(|e| e.is_ok())
        .filter(|e| !e.request_id.is_some_and(|r| node_rids.contains(&r)))
        .count() as u64
}

/// Summed latency of every gateway RPC so far, in milliseconds.
fn rpc_latency_ms(gateway: &RingGateway) -> f64 {
    gateway
        .export_metrics()
        .histograms
        .iter()
        .filter(|h| h.name == "gateway_rpc_latency_ms")
        .map(|h| h.sum)
        .sum()
}

/// Run `f` against the client's gateway, returning its result, its wall
/// time in milliseconds, and its RPC overlap (see [`RpcOverlap`]).
fn timed_rpcs<T>(
    client: &mut PeerStripe<RingGateway>,
    f: impl FnOnce(&mut PeerStripe<RingGateway>) -> T,
) -> (T, f64, f64) {
    let before = rpc_latency_ms(client.backend());
    let (value, ms) = timed(|| f(client));
    let overlap = (rpc_latency_ms(client.backend()) - before) / ms.max(f64::MIN_POSITIVE);
    (value, ms, overlap)
}

/// Milliseconds elapsed while running `f`, paired with its result.
fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = std::time::Instant::now(); // lint:allow(wall-clock) -- the ring harness measures real store/fetch latency on live TCP daemons
    let value = f();
    (value, start.elapsed().as_secs_f64() * 1e3)
}

/// Deterministic file contents for `seed`.
fn file_bytes(size: ByteSize, seed: u64) -> Vec<u8> {
    let mut rng = DetRng::new(seed);
    (0..size.as_u64()).map(|_| rng.next_u64() as u8).collect()
}

/// Aggregate the gateway's registry export into per-op rows.
fn rpc_stats(export: &RegistryExport) -> Vec<RpcStat> {
    let op_of = |labels: &[(String, String)]| {
        labels
            .iter()
            .find(|(k, _)| k == "op")
            .map(|(_, v)| v.clone())
    };
    let hist_for = |op: &str| -> Option<&HistogramExport> {
        export
            .histograms
            .iter()
            .find(|h| h.name == "gateway_rpc_latency_ms" && op_of(&h.labels).as_deref() == Some(op))
    };
    let count_for = |name: &str, op: &str| -> u64 {
        export
            .counters
            .iter()
            .filter(|c| c.name == name && op_of(&c.labels).as_deref() == Some(op))
            .map(|c| c.value)
            .sum()
    };
    let mut ops: Vec<String> = export
        .counters
        .iter()
        .filter(|c| c.name == "gateway_rpc_total")
        .filter_map(|c| op_of(&c.labels))
        .collect();
    ops.sort();
    ops.dedup();
    ops.into_iter()
        .map(|op| {
            let calls = count_for("gateway_rpc_total", &op);
            let mean_ms = hist_for(&op)
                .filter(|h| h.count > 0)
                .map(|h| h.sum / h.count as f64)
                .unwrap_or(0.0);
            RpcStat {
                errors: count_for("gateway_rpc_errors", &op),
                calls,
                mean_ms,
                op,
            }
        })
        .filter(|s| s.calls > 0)
        .collect()
}

/// Run the full store → kill → degraded read → repair → read cycle against
/// a freshly spawned localhost ring.
pub fn run_ring(config: &RingCmdConfig) -> Result<RingReport, String> {
    let bin = node_binary().ok_or_else(|| {
        "peerstripe-node binary not found; build it with \
         `cargo build -p peerstripe-net --bin peerstripe-node` \
         or point PEERSTRIPE_NODE_BIN at it"
            .to_string()
    })?;
    let mut ring = LocalRing::spawn(&bin, config.nodes, config.node_capacity)
        .map_err(|e| format!("spawning {} daemons: {e}", config.nodes))?;
    let gateway = ring.gateway(GatewayConfig::default());
    let mut client = PeerStripe::new(
        gateway,
        PeerStripeConfig {
            coding: CodingPolicy::ReedSolomon { data: 5, parity: 3 },
            ..PeerStripeConfig::default()
        },
    );

    let name = "ring/payload.bin";
    let data = file_bytes(config.file_size, config.seed);

    let (outcome, store_ms, store_overlap) = timed_rpcs(&mut client, |c| c.store_data(name, &data));
    if !outcome.is_stored() {
        return Err(format!("store failed: {outcome:?}"));
    }
    let (fetched, fetch_ms, fetch_overlap) = timed_rpcs(&mut client, |c| c.retrieve_data(name));
    let whole_ok = fetched.as_deref() == Some(&data[..]);

    // Kill a daemon that holds blocks of the file (overlay-random placement
    // need not touch every node).
    let victim = {
        let manifest = client
            .manifest(name)
            .ok_or("manifest tracking is required")?;
        (0..config.nodes)
            .find(|&n| {
                manifest
                    .chunks
                    .iter()
                    .any(|c| c.blocks_on(n).next().is_some())
            })
            .ok_or("no node holds any block")?
    };
    // Scrape every daemon before the kill: the SIGKILL takes the victim's op
    // log and counters with it, so its server-side story must be captured
    // while it is still alive.
    let mut snapshots: BTreeMap<NodeRef, NodeStats> = BTreeMap::new();
    scrape_into(client.backend(), 0..config.nodes, &mut snapshots)?;
    ring.kill(victim).map_err(|e| format!("kill: {e}"))?;

    let (degraded, degraded_fetch_ms) = timed(|| client.retrieve_data(name));
    let degraded_ok = degraded.as_deref() == Some(&data[..]);

    let takeover = client
        .backend_mut()
        .mark_failed(victim)
        .ok_or("victim was not a ring member")?;
    let (report, repair_ms, repair_overlap) =
        timed_rpcs(&mut client, |c| c.handle_node_failure(victim, &takeover));

    let (reread, _) = timed(|| client.retrieve_data(name));
    let recovered = whole_ok && degraded_ok && reread.as_deref() == Some(&data[..]);

    // Re-scrape the survivors: their logs now also cover the degraded read
    // and repair traffic.  The victim keeps its pre-kill snapshot.
    scrape_into(
        client.backend(),
        (0..config.nodes).filter(|&n| n != victim),
        &mut snapshots,
    )?;

    let export = client.backend().export_metrics();
    let rpc = rpc_stats(&export);
    let gateway_log = client.backend().op_log();
    let unattributed_rpcs = unattributed_count(&gateway_log, &snapshots);
    let node_stats = snapshots
        .into_iter()
        .map(|(node, stats)| NodeSideStats {
            node,
            name: format!("node-{node}"),
            stats,
        })
        .collect();

    // Gracefully shut the survivors down (the ring's Drop kills whatever is
    // left).
    for e in ring.endpoints() {
        if e.node != victim {
            client.backend().shutdown_node(e.node);
        }
    }

    Ok(RingReport {
        nodes: config.nodes,
        file_bytes: config.file_size.as_u64(),
        victim,
        store_ms,
        fetch_ms,
        degraded_fetch_ms,
        repair_ms,
        blocks_regenerated: report.blocks_regenerated,
        chunks_lost: report.chunks_lost,
        recovered,
        rpc,
        rpc_overlap: RpcOverlap {
            store: store_overlap,
            fetch: fetch_overlap,
            repair: repair_overlap,
        },
        metrics: export,
        node_stats,
        gateway_rpcs_logged: gateway_log.len() as u64,
        unattributed_rpcs,
    })
}

/// Human-readable report.
pub fn render_ring_text(report: &RingReport) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "networked ring: {} daemons, {} file, victim node {}\n",
        report.nodes,
        ByteSize::bytes(report.file_bytes),
        report.victim
    ));
    out.push_str(&format!(
        "  store {:.1} ms | fetch {:.1} ms | degraded fetch {:.1} ms | repair {:.1} ms\n",
        report.store_ms, report.fetch_ms, report.degraded_fetch_ms, report.repair_ms
    ));
    out.push_str(&format!(
        "  regenerated {} blocks, lost {} chunks, recovered: {}\n",
        report.blocks_regenerated, report.chunks_lost, report.recovered
    ));
    out.push_str(&format!(
        "  {} gateway RPCs logged, {} unattributed\n",
        report.gateway_rpcs_logged, report.unattributed_rpcs
    ));
    out.push_str(&format!(
        "  rpc overlap (summed rpc latency / wall time): store {:.2} | fetch {:.2} | repair {:.2}\n",
        report.rpc_overlap.store, report.rpc_overlap.fetch, report.rpc_overlap.repair
    ));
    out.push_str("  op             calls  errors  mean ms\n");
    for stat in &report.rpc {
        out.push_str(&format!(
            "  {:<14} {:>5}  {:>6}  {:>7.3}\n",
            stat.op, stat.calls, stat.errors, stat.mean_ms
        ));
    }
    out.push_str("  node      used / capacity   objects  reqs  errors  slow\n");
    for ns in &report.node_stats {
        let sum_counter = |name: &str| -> u64 {
            ns.stats
                .metrics
                .counters
                .iter()
                .filter(|c| c.name == name)
                .map(|c| c.value)
                .sum()
        };
        out.push_str(&format!(
            "  {:<8} {:>6} / {:>8}  {:>7}  {:>4}  {:>6}  {:>4}\n",
            ns.name,
            ns.stats.used.to_string(),
            ns.stats.capacity.to_string(),
            ns.stats.objects,
            sum_counter("node_requests_total"),
            sum_counter("node_errors_total"),
            sum_counter("node_slow_requests_total"),
        ));
    }
    out
}

/// Machine-readable report (the `--format json` / `--out` artifact).
pub fn render_ring_json(report: &RingReport) -> String {
    serde_json::to_string(report).unwrap_or_default()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_ring_stores_and_recovers() {
        if node_binary().is_none() {
            // The daemon binary is built by `cargo build -p peerstripe-net`;
            // without it there is nothing to spawn.
            eprintln!("skipping: peerstripe-node binary not built");
            return;
        }
        let report = run_ring(&RingCmdConfig::at_scale(Scale::Small, 42)).unwrap();
        assert!(report.recovered);
        assert_eq!(report.chunks_lost, 0);
        assert!(report.blocks_regenerated > 0);
        assert!(report
            .rpc
            .iter()
            .any(|s| s.op == "store_block" && s.calls > 0));
        // Server-side stats cover every daemon, and every logged RPC joins a
        // node op-log entry by request id (or failed with an error kind).
        assert_eq!(report.node_stats.len(), report.nodes);
        assert!(report.gateway_rpcs_logged > 0);
        assert_eq!(report.unattributed_rpcs, 0);
        let victim_stats = report
            .node_stats
            .iter()
            .find(|ns| ns.node == report.victim)
            .expect("the victim's pre-kill scrape is in the report");
        assert!(!victim_stats.stats.op_log.is_empty());
        let json = render_ring_json(&report);
        assert!(json.contains("gateway_rpc_latency_ms"), "{json}");
        assert!(json.contains("\"rpc_overlap\""), "{json}");
        // Every measured operation issued RPCs.
        let o = report.rpc_overlap;
        assert!(o.store > 0.0 && o.fetch > 0.0 && o.repair > 0.0, "{o:?}");
        assert!(json.contains("node_requests_total"), "{json}");
        assert!(!render_ring_text(&report).is_empty());
    }
}
