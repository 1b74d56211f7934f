//! Turning rounds, spans and the erasure replay into named metrics.
//!
//! End-to-end metrics come from untraced passes only.  Per-layer metrics come
//! from the traced pass's spans (backend calls attributed to the user
//! operation that issued them), the daemons' own stats, and a replay of the
//! workload's chunks through the public codec.

use crate::ring::{ChunkCase, RoundResult, CODING};
use crate::stats::{self, Tail};
use peerstripe_erasure::EncodedBlock;
use std::collections::BTreeMap;
use std::time::Instant;

/// One named, unit-carrying value, plus a human note for the text report.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Metric name as listed in `BENCHMARK.json`.
    pub name: String,
    /// The value.
    pub value: f64,
    /// Its unit.
    pub unit: &'static str,
    /// Evidence printed beside it (sample counts, tail percentile).
    pub note: String,
}

impl Metric {
    /// A metric with no note.
    pub fn new(name: &str, value: f64, unit: &'static str) -> Metric {
        Metric {
            name: name.to_string(),
            value,
            unit,
            note: String::new(),
        }
    }

    /// Attach a note.
    pub fn with_note(mut self, note: String) -> Metric {
        self.note = note;
        self
    }
}

/// The note printed beside a tail metric.
pub fn tail_note(t: &Tail) -> String {
    format!(
        "p{} of {} samples, {} beyond",
        t.percentile, t.samples, t.beyond
    )
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

fn concat(rounds: &[RoundResult], pick: impl Fn(&RoundResult) -> &Vec<f64>) -> Vec<f64> {
    rounds
        .iter()
        .flat_map(|r| pick(r).iter().copied())
        .collect()
}

fn sum(rounds: &[RoundResult], pick: impl Fn(&RoundResult) -> f64) -> f64 {
    rounds.iter().map(pick).sum()
}

/// Median over rounds of a per-round rate: one disturbed round cannot move it.
fn median_rate(rounds: &[RoundResult], rate: impl Fn(&RoundResult) -> f64) -> f64 {
    stats::median(&rounds.iter().map(rate).collect::<Vec<_>>())
}

/// The store-side end-to-end metrics of ring rounds.
pub fn ring_store_side(rounds: &[RoundResult]) -> Vec<Metric> {
    let stores = concat(rounds, |r| &r.store_ms);
    let setups: Vec<f64> = rounds.iter().map(|r| r.setup_s).collect();
    let stored = sum(rounds, |r| r.stored_bytes as f64);
    vec![
        Metric::new("setup_s", stats::median(&setups), "s")
            .with_note(format!("median of {} set-ups", setups.len())),
        Metric::new("store_p50_ms", stats::median(&stores), "ms")
            .with_note(format!("{} stores", stores.len())),
        Metric::new(
            "insert_files_per_s",
            median_rate(rounds, |r| {
                ratio(
                    r.store_ms.len() as f64,
                    r.store_ms.iter().sum::<f64>() / 1e3,
                )
            }),
            "files/s",
        )
        .with_note(format!("median of {} rounds", rounds.len())),
        Metric::new("stored_pct", 100.0, "%")
            .with_note("every ring store must succeed".to_string()),
        Metric::new(
            "utilization_pct",
            100.0
                * ratio(
                    sum(rounds, |r| r.used as f64),
                    sum(rounds, |r| r.capacity as f64),
                ),
            "%",
        ),
        Metric::new(
            "space_amp",
            ratio(sum(rounds, |r| r.used as f64), stored),
            "ratio",
        ),
    ]
}

/// The read- and repair-side end-to-end metrics of ring rounds.
pub fn ring_read_side(rounds: &[RoundResult]) -> Vec<Metric> {
    let fetches = concat(rounds, |r| &r.fetch_ms);
    let degraded = concat(rounds, |r| &r.degraded_ms);
    let regenerated = sum(rounds, |r| r.bytes_regenerated as f64);
    let repair_s = sum(rounds, |r| r.repair_s);
    vec![
        Metric::new("fetch_p50_ms", stats::median(&fetches), "ms")
            .with_note(format!("{} fetches", fetches.len())),
        Metric::new("degraded_fetch_p50_ms", stats::median(&degraded), "ms")
            .with_note(format!("{} degraded fetches", degraded.len())),
        Metric::new("repair_mb_s", ratio(regenerated, repair_s) / 1e6, "MB/s").with_note(format!(
            "{} repairs, {:.1} MB regenerated in {:.3} s",
            rounds.len(),
            regenerated / 1e6,
            repair_s
        )),
        Metric::new(
            "goodput_mb_s",
            median_rate(rounds, |r| ratio(r.mixed_bytes as f64, r.mixed_s)) / 1e6,
            "MB/s",
        )
        .with_note(format!("median of {} rounds", rounds.len())),
    ]
}

/// Backend-call totals under one kind of user operation.
#[derive(Debug, Default, Clone)]
struct OpAgg {
    ops: u64,
    wall_ms: f64,
    inside_ms: f64,
    /// call name → (calls, ms)
    calls: BTreeMap<&'static str, (u64, f64)>,
}

impl OpAgg {
    fn calls(&self, name: &str) -> f64 {
        self.calls.get(name).map_or(0.0, |c| c.0 as f64)
    }
    fn ms(&self, name: &str) -> f64 {
        self.calls.get(name).map_or(0.0, |c| c.1)
    }
    fn self_ms(&self) -> f64 {
        ratio(self.wall_ms - self.inside_ms, self.ops as f64)
    }
}

/// Backend call name → (calls, ms).
type CallTotals = BTreeMap<&'static str, (u64, f64)>;

/// Aggregate a pass's spans by operation kind; also the successful calls of
/// every kind over the whole pass (name → (calls, ms)).
fn aggregate(rounds: &[RoundResult]) -> (BTreeMap<&'static str, OpAgg>, CallTotals) {
    let mut ops: BTreeMap<&'static str, OpAgg> = BTreeMap::new();
    let mut ok_calls = CallTotals::new();
    for r in rounds {
        let kind_of: BTreeMap<u64, &'static str> = r
            .spans
            .iter()
            .filter(|s| s.parent == 0)
            .map(|s| (s.id, s.name))
            .collect();
        for s in &r.spans {
            if s.parent == 0 {
                let agg = ops.entry(s.name).or_default();
                agg.ops += 1;
                agg.wall_ms += s.ms();
                continue;
            }
            if s.ok {
                let e = ok_calls.entry(s.name).or_default();
                e.0 += 1;
                e.1 += s.ms();
            }
            let Some(kind) = kind_of.get(&s.parent) else {
                continue;
            };
            let agg = ops.entry(kind).or_default();
            agg.inside_ms += s.ms();
            let e = agg.calls.entry(s.name).or_default();
            e.0 += 1;
            e.1 += s.ms();
        }
    }
    (ops, ok_calls)
}

/// Timings of the workload's chunks replayed through the public codec.
#[derive(Debug, Default, Clone)]
pub struct Replay {
    /// ms per chunk encode.
    pub encode_ms: Vec<f64>,
    /// ms per chunk decode from every block.
    pub decode_ms: Vec<f64>,
    /// ms per chunk decode without the failed node's blocks.
    pub degraded_ms: Vec<f64>,
    /// ms per re-encode of the failed node's blocks.
    pub reencode_ms: Vec<f64>,
}

/// Replay up to `limit` chunks: encode, decode from all blocks, decode
/// without the failed node's blocks, and re-encode those blocks — checking
/// every result against the original.
pub fn replay(seed: u64, cases: &[ChunkCase], limit: usize) -> Result<Replay, String> {
    let codec = CODING.codec(crate::ring::client_config().data_path_blocks);
    let placed = CODING.placed_blocks();
    let mut out = Replay::default();
    for case in cases.iter().take(limit) {
        let data = crate::ring::file_bytes(seed, case.round, case.file, case.len);
        let t = Instant::now();
        let blocks = codec.encode(&data);
        out.encode_ms.push(t.elapsed().as_secs_f64() * 1e3);
        let t = Instant::now();
        let decoded = codec.decode(&blocks, case.len);
        out.decode_ms.push(t.elapsed().as_secs_f64() * 1e3);
        if decoded.as_deref() != Ok(&data[..]) {
            return Err(format!("replayed decode of file {} differs", case.file));
        }
        if case.lost.is_empty() {
            continue;
        }
        // Codec block i travels in placed object i % placed (round-robin).
        let lost = |i: usize| case.lost.contains(&((i % placed) as u32));
        let kept: Vec<EncodedBlock> = blocks
            .iter()
            .enumerate()
            .filter(|(i, _)| !lost(*i))
            .map(|(_, b)| b.clone())
            .collect();
        let gone: Vec<&EncodedBlock> = blocks
            .iter()
            .enumerate()
            .filter(|(i, _)| lost(*i))
            .map(|(_, b)| b)
            .collect();
        let t = Instant::now();
        let decoded = codec.decode(&kept, case.len);
        out.degraded_ms.push(t.elapsed().as_secs_f64() * 1e3);
        if decoded.as_deref() != Ok(&data[..]) {
            return Err(format!(
                "replayed degraded decode of file {} differs",
                case.file
            ));
        }
        let missing: Vec<u32> = gone.iter().map(|b| b.index).collect();
        let t = Instant::now();
        let rebuilt = codec
            .reencode(&kept, case.len, &missing)
            .map_err(|e| format!("replayed re-encode of file {}: {e:?}", case.file))?;
        out.reencode_ms.push(t.elapsed().as_secs_f64() * 1e3);
        if rebuilt.iter().collect::<Vec<_>>() != gone {
            return Err(format!("replayed re-encode of file {} differs", case.file));
        }
    }
    Ok(out)
}

/// The insertion-layer metrics (`client.insert_us_*`, `overlay.*`,
/// `client.*chunks_per_file`).
#[derive(Debug, Clone)]
pub struct InsertLayer {
    /// µs per successful-or-not insert.
    pub insert_us: Vec<f64>,
    /// µs per refused insert.
    pub failed_us: Vec<f64>,
    /// Overlay lookups per file.
    pub lookups_per_file: f64,
    /// Non-empty chunks per stored file.
    pub chunks_per_file: f64,
    /// Zero-sized chunks per attempted file.
    pub zero_chunks_per_file: f64,
}

impl InsertLayer {
    /// The insert layer as the ring's traced stores see it.
    pub fn from_ring(rounds: &[RoundResult]) -> InsertLayer {
        let (ops, _) = aggregate(rounds);
        let store = ops.get("store").cloned().unwrap_or_default();
        let files = sum(rounds, |r| r.store_ms.len() as f64);
        let insert_us = rounds
            .iter()
            .flat_map(|r| {
                r.spans
                    .iter()
                    .filter(|s| s.parent == 0 && s.name == "store")
            })
            .map(|s| s.ms() * 1e3)
            .collect();
        InsertLayer {
            insert_us,
            failed_us: Vec::new(),
            lookups_per_file: ratio(store.calls("probe") + store.calls("route_lookup"), files),
            chunks_per_file: ratio(sum(rounds, |r| r.chunks as f64), files),
            zero_chunks_per_file: ratio(sum(rounds, |r| r.zero_chunks as f64), files),
        }
    }

    fn metrics(&self) -> Vec<Metric> {
        let t = stats::tail(&self.insert_us);
        vec![
            Metric::new("client.insert_us_p50", stats::median(&self.insert_us), "us"),
            Metric::new("client.insert_us_tail", t.value, "us").with_note(tail_note(&t)),
            Metric::new(
                "client.insert_us_failed_p50",
                stats::median(&self.failed_us),
                "us",
            )
            .with_note(format!("{} refused inserts", self.failed_us.len())),
            Metric::new("overlay.lookups_per_file", self.lookups_per_file, "count"),
            Metric::new("client.chunks_per_file", self.chunks_per_file, "count"),
            Metric::new(
                "client.zero_chunks_per_file",
                self.zero_chunks_per_file,
                "count",
            ),
        ]
    }
}

/// Every per-layer metric.  `untraced` and `traced` ran the same rounds;
/// `insert` is the insertion layer of the workload (the ring's own stores,
/// or sim-insert's paper-scale insertion) and `store_ms` its untraced store
/// latencies, whose tail is reported here together with the fetch tail.
pub fn per_layer(
    untraced: &[RoundResult],
    traced: &[RoundResult],
    replay: &Replay,
    insert: &InsertLayer,
    store_ms: &[f64],
) -> Vec<Metric> {
    let (ops, ok_calls) = aggregate(traced);
    let op = |k: &str| ops.get(k).cloned().unwrap_or_default();
    let (store, fetch, degraded, repair) =
        (op("store"), op("fetch"), op("degraded_fetch"), op("repair"));
    let n_store = store.ops as f64;
    let n_fetch = fetch.ops as f64;
    let regenerated = sum(traced, |r| r.blocks_regenerated as f64);
    // Every file is one chunk (the round checks it).
    let needed = n_fetch * CODING.min_blocks_needed() as f64;
    let rollbacks: f64 = ops.values().map(|a| a.calls("rollback_block")).sum();

    let mut errors: BTreeMap<String, u64> = BTreeMap::new();
    for r in traced {
        for (kind, n) in &r.rpc_errors {
            *errors.entry(kind.clone()).or_default() += n;
        }
    }
    let error = |kind: &str| errors.get(kind).copied().unwrap_or(0) as f64;
    let other_errors = errors
        .iter()
        .filter(|(k, _)| k.as_str() != "io" && k.as_str() != "node_insufficient_space")
        .map(|(_, n)| *n)
        .sum::<u64>() as f64;

    let mut service: BTreeMap<String, (f64, u64)> = BTreeMap::new();
    for r in traced {
        for (op, (ms, n)) in &r.service {
            let e = service.entry(op.clone()).or_default();
            e.0 += ms;
            e.1 += n;
        }
    }
    let has_daemons = !service.is_empty();
    let service_ms = |op: &str| service.get(op).map_or(0.0, |(ms, n)| ratio(*ms, *n as f64));
    let call_ms = |name: &str| {
        ok_calls
            .get(name)
            .map_or(0.0, |(n, ms)| ratio(*ms, *n as f64))
    };
    let wire_ms = |call: &str, op: &str| {
        if has_daemons {
            call_ms(call) - service_ms(op)
        } else {
            0.0
        }
    };

    let mut out = vec![
        Metric::new(
            "placement.probe.calls_per_store",
            ratio(store.calls("probe"), n_store),
            "count",
        ),
        Metric::new(
            "placement.probe.ms_per_store",
            ratio(store.ms("probe"), n_store),
            "ms",
        ),
        Metric::new(
            "gateway.store_block.calls_per_store",
            ratio(store.calls("store_block"), n_store),
            "count",
        ),
        Metric::new(
            "gateway.store_block.ms_per_store",
            ratio(store.ms("store_block"), n_store),
            "ms",
        ),
        Metric::new(
            "gateway.store_block.ms_per_call",
            ratio(store.ms("store_block"), store.calls("store_block")),
            "ms",
        ),
        Metric::new(
            "gateway.fetch_block.calls_per_fetch",
            ratio(fetch.calls("fetch_block"), n_fetch),
            "count",
        ),
        Metric::new(
            "gateway.fetch_block.per_needed_block",
            ratio(fetch.calls("fetch_block"), needed),
            "ratio",
        ),
        Metric::new(
            "gateway.fetch_block.ms_per_fetch",
            ratio(fetch.ms("fetch_block"), n_fetch),
            "ms",
        ),
        Metric::new(
            "gateway.fetch_block.ms_per_call",
            ratio(fetch.ms("fetch_block"), fetch.calls("fetch_block")),
            "ms",
        ),
        Metric::new(
            "gateway.fetch_block.calls_per_regenerated_block",
            ratio(repair.calls("fetch_block"), regenerated),
            "count",
        ),
        Metric::new(
            "gateway.can_store.calls_per_regenerated_block",
            ratio(repair.calls("can_store"), regenerated),
            "count",
        ),
        Metric::new(
            "gateway.repair_ms",
            ratio(repair.inside_ms, repair.ops as f64),
            "ms",
        ),
        Metric::new("gateway.rollback_block.calls", rollbacks, "count"),
        Metric::new("gateway.rpc_errors.io", error("io"), "count"),
        Metric::new(
            "gateway.rpc_errors.node_insufficient_space",
            error("node_insufficient_space"),
            "count",
        ),
        Metric::new("gateway.rpc_errors.other", other_errors, "count"),
        Metric::new("client.store.self_ms", store.self_ms(), "ms"),
        Metric::new("client.fetch.self_ms", fetch.self_ms(), "ms"),
        Metric::new("client.degraded_fetch.self_ms", degraded.self_ms(), "ms"),
        Metric::new("client.repair.self_ms", repair.self_ms(), "ms"),
        Metric::new(
            "erasure.encode.ms_per_chunk",
            stats::mean(&replay.encode_ms),
            "ms",
        )
        .with_note(format!("{} chunks replayed", replay.encode_ms.len())),
        Metric::new(
            "erasure.decode.ms_per_chunk",
            stats::mean(&replay.decode_ms),
            "ms",
        ),
        Metric::new(
            "erasure.decode_degraded.ms_per_chunk",
            stats::mean(&replay.degraded_ms),
            "ms",
        )
        .with_note(format!("{} chunks lost blocks", replay.degraded_ms.len())),
        Metric::new(
            "erasure.reencode.ms_per_block",
            stats::mean(&replay.reencode_ms),
            "ms",
        ),
    ];
    for op in ["get_capacity", "store_block", "fetch_block"] {
        out.push(Metric::new(
            &format!("node.service_ms.{op}"),
            service_ms(op),
            "ms",
        ));
    }
    for (call, op) in [
        ("probe", "get_capacity"),
        ("store_block", "store_block"),
        ("fetch_block", "fetch_block"),
    ] {
        out.push(Metric::new(
            &format!("protocol.wire_ms.{op}"),
            wire_ms(call, op),
            "ms",
        ));
    }
    out.push(Metric::new(
        "protocol.wire_bytes_per_user_byte",
        ratio(
            sum(traced, |r| r.wire_bytes as f64),
            sum(traced, |r| r.mixed_bytes as f64),
        ),
        "ratio",
    ));
    out.push(Metric::new(
        "placement.fragile_chunk_pct",
        100.0
            * ratio(
                sum(traced, |r| r.fragile_chunks as f64),
                sum(traced, |r| r.chunks as f64),
            ),
        "%",
    ));
    out.extend(insert.metrics());
    let store_tail = stats::tail(store_ms);
    let fetch_tail = stats::tail(&concat(untraced, |r| &r.fetch_ms));
    out.push(
        Metric::new("store_tail_ms", store_tail.value, "ms").with_note(tail_note(&store_tail)),
    );
    out.push(
        Metric::new("fetch_tail_ms", fetch_tail.value, "ms").with_note(tail_note(&fetch_tail)),
    );
    out.push(Metric::new(
        "trace.overhead_pct",
        overhead_pct(untraced, traced),
        "%",
    ));
    out
}

/// Tracing overhead: traced over untraced median latency of the mixed-phase
/// operations (stores and fetches pooled), in percent.
fn overhead_pct(untraced: &[RoundResult], traced: &[RoundResult]) -> f64 {
    let pooled = |rounds: &[RoundResult]| {
        let mut v = concat(rounds, |r| &r.store_ms);
        v.extend(concat(rounds, |r| &r.fetch_ms));
        stats::median(&v)
    };
    100.0 * (ratio(pooled(traced), pooled(untraced)) - 1.0)
}

/// A text breakdown of each operation kind: wall time per op and the share
/// spent inside each backend call.
pub fn breakdown(traced: &[RoundResult]) -> Vec<String> {
    let (ops, _) = aggregate(traced);
    let mut lines = Vec::new();
    for (kind, agg) in &ops {
        let per = |ms: f64| ratio(ms, agg.ops as f64);
        let mut line = format!(
            "layers {kind}: {} ops, {:.4} ms/op = self {:.4}",
            agg.ops,
            per(agg.wall_ms),
            agg.self_ms()
        );
        let mut calls: Vec<(&&str, &(u64, f64))> = agg.calls.iter().collect();
        calls.sort_by(|a, b| b.1 .1.total_cmp(&a.1 .1));
        for (name, (n, ms)) in calls {
            line.push_str(&format!(
                " + {name} {:.4} ({:.2} calls)",
                per(*ms),
                per(*n as f64)
            ));
        }
        lines.push(line);
    }
    lines
}
