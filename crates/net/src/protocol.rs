//! The framed wire format spoken between the gateway and `peerstripe-node`
//! daemons.
//!
//! Every message is one *frame*:
//!
//! ```text
//! [magic u16 LE][version u8][kind u8][meta_len u32 LE][payload_len u32 LE]
//! [meta: meta_len bytes of JSON][payload: payload_len bytes, raw]
//! ```
//!
//! The JSON *meta* section carries the typed message fields (names, keys,
//! sizes) through the vendored serde; block *payload* bytes ride the raw
//! payload section so a stored block is never base64-inflated or JSON-escaped.
//! The header is validated before any body byte is trusted: bad magic, an
//! unsupported version, or a body larger than [`MAX_FRAME`] rejects the frame
//! without allocating for it.
//!
//! The message set is the paper's §3 primitive set: `GetCapacity` (the
//! `getCapacity` probe), `StoreBlock` (chunk store), `FetchBlock` (retrieval),
//! and `RepairRead` (bulk read of a chunk's surviving blocks for
//! regeneration), plus `Ping`, `RemoveBlock` (store rollback), `Shutdown`,
//! and typed error replies.

use peerstripe_core::ObjectName;
use peerstripe_overlay::Id;
use peerstripe_sim::ByteSize;
use peerstripe_telemetry::RegistryExport;
use serde::value::Value;
use serde::{Deserialize, Serialize};
use std::io::{IoSlice, Read, Write};

/// First two header bytes of every frame: `"PS"` little-endian.
pub const MAGIC: u16 = 0x5053;
/// Wire protocol version this build speaks.
pub const VERSION: u8 = 1;
/// Maximum accepted frame body (meta + payload), guarding both sides against
/// a corrupt or hostile length field.
pub const MAX_FRAME: u64 = 16 * 1024 * 1024;
/// Fixed header length in bytes.
pub const HEADER_LEN: usize = 12;

/// Frame kind bytes. Requests have the high bit clear, responses set.
pub mod kind {
    /// Liveness check request.
    pub const PING: u8 = 0x01;
    /// `getCapacity` probe request.
    pub const GET_CAPACITY: u8 = 0x02;
    /// Store one block request.
    pub const STORE_BLOCK: u8 = 0x03;
    /// Fetch one block request.
    pub const FETCH_BLOCK: u8 = 0x04;
    /// Bulk-read a chunk's blocks for regeneration.
    pub const REPAIR_READ: u8 = 0x05;
    /// Remove a block (store rollback).
    pub const REMOVE_BLOCK: u8 = 0x06;
    /// Ask the daemon to shut down gracefully.
    pub const SHUTDOWN: u8 = 0x07;
    /// Ask for the daemon's metrics snapshot and recent-request log.
    pub const GET_STATS: u8 = 0x08;
    /// Reply to [`PING`].
    pub const PONG: u8 = 0x81;
    /// Reply to [`GET_CAPACITY`].
    pub const CAPACITY: u8 = 0x82;
    /// Success reply to [`STORE_BLOCK`].
    pub const STORED: u8 = 0x83;
    /// Reply to [`FETCH_BLOCK`].
    pub const BLOCK: u8 = 0x84;
    /// Reply to [`REPAIR_READ`].
    pub const REPAIR_BLOCKS: u8 = 0x85;
    /// Reply to [`REMOVE_BLOCK`].
    pub const REMOVED: u8 = 0x86;
    /// Reply to [`SHUTDOWN`].
    pub const SHUTTING_DOWN: u8 = 0x87;
    /// Reply to [`GET_STATS`].
    pub const STATS: u8 = 0x88;
    /// Typed error reply (any request).
    pub const ERROR: u8 = 0xFF;
}

/// Everything that can go wrong reading or writing a frame.
#[derive(Debug)]
pub enum WireError {
    /// The underlying socket failed.
    Io(std::io::Error),
    /// The stream ended inside a frame.
    Truncated,
    /// The first two bytes were not [`MAGIC`].
    BadMagic(u16),
    /// The peer speaks a protocol version this build does not.
    Version(u8),
    /// The declared body length exceeds [`MAX_FRAME`].
    Oversized(u64),
    /// The kind byte names no known message.
    UnknownKind(u8),
    /// The meta section failed to parse as the expected message.
    Body(String),
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Io(e) => write!(f, "i/o error: {e}"),
            WireError::Truncated => write!(f, "stream ended inside a frame"),
            WireError::BadMagic(m) => write!(f, "bad frame magic {m:#06x}"),
            WireError::Version(v) => write!(f, "unsupported protocol version {v}"),
            WireError::Oversized(n) => {
                write!(
                    f,
                    "frame body of {n} bytes exceeds the {MAX_FRAME}-byte limit"
                )
            }
            WireError::UnknownKind(k) => write!(f, "unknown message kind {k:#04x}"),
            WireError::Body(e) => write!(f, "malformed message body: {e}"),
        }
    }
}

impl std::error::Error for WireError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            WireError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl Clone for WireError {
    /// A copy for every call a failure ends: an I/O error keeps its kind and
    /// message, which is all the gateway reads back from it.
    fn clone(&self) -> Self {
        match self {
            WireError::Io(e) => WireError::Io(std::io::Error::new(e.kind(), e.to_string())),
            WireError::Truncated => WireError::Truncated,
            WireError::BadMagic(m) => WireError::BadMagic(*m),
            WireError::Version(v) => WireError::Version(*v),
            WireError::Oversized(n) => WireError::Oversized(*n),
            WireError::UnknownKind(k) => WireError::UnknownKind(*k),
            WireError::Body(e) => WireError::Body(e.clone()),
        }
    }
}

impl From<std::io::Error> for WireError {
    fn from(e: std::io::Error) -> Self {
        if e.kind() == std::io::ErrorKind::UnexpectedEof {
            WireError::Truncated
        } else {
            WireError::Io(e)
        }
    }
}

impl WireError {
    /// True for transport-level failures where reconnecting may help, as
    /// opposed to protocol violations where it will not.
    pub fn is_transport(&self) -> bool {
        matches!(self, WireError::Io(_) | WireError::Truncated)
    }

    /// A stable label for the error's variant, used as the `kind` label on
    /// `gateway_rpc_errors` so wire errors stay distinguishable from node
    /// refusals in merged telemetry.
    pub fn kind_label(&self) -> &'static str {
        match self {
            WireError::Io(_) => "io",
            WireError::Truncated => "truncated",
            WireError::BadMagic(_) => "bad_magic",
            WireError::Version(_) => "version",
            WireError::Oversized(_) => "oversized",
            WireError::UnknownKind(_) => "unknown_kind",
            WireError::Body(_) => "body",
        }
    }
}

/// A request the gateway sends to a node daemon.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    /// Liveness check.
    Ping,
    /// The paper's `getCapacity` probe: how much space will you accept?
    GetCapacity,
    /// Store a block under `key`; the payload travels in the frame's raw
    /// payload section.
    StoreBlock {
        /// Overlay key the object is stored under.
        key: Id,
        /// The object's name.
        name: ObjectName,
        /// Size charged against the node's capacity.
        size: ByteSize,
        /// Block bytes (absent on the metadata-only placement path).
        payload: Option<Vec<u8>>,
    },
    /// Fetch the block stored under `name`'s key.
    FetchBlock {
        /// The object's name.
        name: ObjectName,
    },
    /// Read every surviving block of `(file, chunk)` this node holds — the
    /// bulk read regeneration starts from.
    RepairRead {
        /// The file the chunk belongs to.
        file: String,
        /// The chunk number.
        chunk: u32,
    },
    /// Undo a store: remove the object, or release `size` reserved bytes if
    /// the object is not tracked.
    RemoveBlock {
        /// The object's name.
        name: ObjectName,
        /// Size to release when the object itself is unknown.
        size: ByteSize,
    },
    /// Ask the daemon to finish in-flight requests and exit.
    Shutdown,
    /// Ask for the node's metrics snapshot and recent-request log.
    GetStats,
}

/// Why a node refused a request.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum RemoteError {
    /// The node does not have the space (`StoreBlock`).
    InsufficientSpace,
    /// An object with the same key is already stored (`StoreBlock`).
    AlreadyStored,
    /// The request could not be understood.
    BadRequest {
        /// Human-readable detail.
        detail: String,
    },
}

impl std::fmt::Display for RemoteError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RemoteError::InsufficientSpace => write!(f, "insufficient space on the node"),
            RemoteError::AlreadyStored => {
                write!(f, "an object with the same key is already stored")
            }
            RemoteError::BadRequest { detail } => write!(f, "bad request: {detail}"),
        }
    }
}

/// One finished request in a node's bounded recent-request log.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct OpLogEntry {
    /// The request id the caller threaded through the frame meta; `None`
    /// when the request was untraced.
    pub request_id: Option<u64>,
    /// Wire operation name (`store_block`, `fetch_block`, ...).
    pub op: String,
    /// How long handling took, in milliseconds.
    pub duration_ms: f64,
    /// `"ok"` or a typed error kind (`insufficient_space`, ...).
    pub outcome: String,
    /// True when `duration_ms` crossed the node's slow-request threshold.
    pub slow: bool,
}

impl OpLogEntry {
    /// True when the request completed without a typed error.
    pub fn is_ok(&self) -> bool {
        self.outcome == "ok"
    }
}

/// A node daemon's self-reported observability snapshot: identity, store
/// occupancy, the full metrics-registry export, and the tail of its
/// recent-request log.  Carried by [`Response::Stats`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct NodeStats {
    /// The reporting node's overlay identifier.
    pub node: Id,
    /// Contributed capacity.
    pub capacity: ByteSize,
    /// Bytes currently charged against the capacity.
    pub used: ByteSize,
    /// Objects currently stored.
    pub objects: u64,
    /// The node's metrics registry (per-op counters, latency histograms,
    /// byte counters, occupancy gauge, typed-error counters).
    pub metrics: RegistryExport,
    /// The bounded recent-request log, oldest first.
    pub op_log: Vec<OpLogEntry>,
}

/// One block returned by a [`Request::RepairRead`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RepairBlock {
    /// The block's name.
    pub name: ObjectName,
    /// The block's recorded size.
    pub size: ByteSize,
    /// The block's payload bytes, when the byte path stored any.
    pub payload: Option<Vec<u8>>,
}

/// A reply a node daemon sends back to the gateway.
///
/// `PartialEq` only (no `Eq`): [`Response::Stats`] carries float-valued
/// telemetry.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// Reply to [`Request::Ping`], carrying the node's overlay id.
    Pong {
        /// The responding node's identifier.
        node: Id,
    },
    /// Reply to [`Request::GetCapacity`]: the advertised free space.  The
    /// space is *not* reserved (Section 4.3 of the paper).
    Capacity {
        /// Free space the node is willing to devote to one block.
        free: ByteSize,
    },
    /// The block was stored.
    Stored,
    /// Reply to [`Request::FetchBlock`]; `None` when the node does not hold
    /// the object.
    Block {
        /// The found block's size and payload.
        block: Option<(ByteSize, Option<Vec<u8>>)>,
    },
    /// Reply to [`Request::RepairRead`]: every matching block on the node.
    RepairBlocks {
        /// The surviving blocks, in stored-key order.
        blocks: Vec<RepairBlock>,
    },
    /// The block was removed (or its space released).
    Removed,
    /// The daemon acknowledges the shutdown request and will exit.
    ShuttingDown,
    /// Reply to [`Request::GetStats`]: the node's observability snapshot.
    Stats {
        /// Metrics, occupancy, and the recent-request log.
        stats: Box<NodeStats>,
    },
    /// The request was refused.
    Error(RemoteError),
}

// Per-variant meta records: the kind byte discriminates the message, so each
// frame's JSON carries only that variant's fields.

#[derive(Serialize, Deserialize)]
struct StoreBlockMeta {
    key: Id,
    name: ObjectName,
    size: ByteSize,
    has_payload: bool,
}

#[derive(Serialize, Deserialize)]
struct FetchBlockMeta {
    name: ObjectName,
}

#[derive(Serialize, Deserialize)]
struct RepairReadMeta {
    file: String,
    chunk: u32,
}

#[derive(Serialize, Deserialize)]
struct RemoveBlockMeta {
    name: ObjectName,
    size: ByteSize,
}

#[derive(Serialize, Deserialize)]
struct PongMeta {
    node: Id,
}

#[derive(Serialize, Deserialize)]
struct CapacityMeta {
    free: ByteSize,
}

#[derive(Serialize, Deserialize)]
struct BlockMeta {
    found: bool,
    size: ByteSize,
    has_payload: bool,
}

#[derive(Serialize, Deserialize)]
struct RepairBlockMeta {
    name: ObjectName,
    size: ByteSize,
    /// Length of this block's slice of the frame payload; `None` when the
    /// block carries no payload (metadata-only path).
    payload_len: Option<u64>,
}

#[derive(Serialize, Deserialize)]
struct RepairBlocksMeta {
    blocks: Vec<RepairBlockMeta>,
}

/// The meta-JSON key an optional request id travels under.  Request ids make
/// every RPC correlatable between the gateway's and the node's op logs; a
/// frame without the key is simply untraced, so old and new peers interoperate
/// (the typed meta parsers ignore unknown fields).
const RID_KEY: &str = "rid";

/// Render a frame's meta section: the message's typed fields as a JSON
/// object (or `None` for field-less messages), with the optional request id
/// spliced in as an extra `"rid"` field.  Untraced field-less frames keep the
/// zero-byte meta section older peers expect.
fn render_meta(meta: Option<Value>, rid: Option<u64>) -> Result<String, WireError> {
    let value = match (meta, rid) {
        (None, None) => return Ok(String::new()),
        (Some(v), None) => v,
        (meta, Some(id)) => {
            let mut fields = match meta {
                Some(Value::Obj(fields)) => fields,
                None => Vec::new(),
                Some(_) => {
                    return Err(WireError::Body(
                        "request ids require an object-shaped meta".to_string(),
                    ))
                }
            };
            fields.push((RID_KEY.to_string(), Value::Num(id.to_string())));
            Value::Obj(fields)
        }
    };
    serde_json::to_string(&value).map_err(|e| WireError::Body(e.to_string()))
}

/// Parse a frame's meta section and strip the optional request id out of it,
/// leaving the typed fields for the per-kind parsers.  Non-object metas (the
/// error reply's enum encoding) pass through untouched and untraced.
fn split_meta(meta: &str) -> Result<(Value, Option<u64>), WireError> {
    if meta.is_empty() {
        return Ok((Value::Obj(Vec::new()), None));
    }
    let value: Value = serde_json::from_str(meta).map_err(|e| WireError::Body(e.to_string()))?;
    let Value::Obj(mut fields) = value else {
        return Ok((value, None));
    };
    let rid = match fields.iter().position(|(k, _)| k == RID_KEY) {
        Some(i) => match fields.remove(i).1 {
            Value::Num(n) => Some(
                n.parse::<u64>()
                    .map_err(|_| WireError::Body(format!("bad request id {n:?}")))?,
            ),
            Value::Null => None,
            _ => return Err(WireError::Body("request id is not a number".to_string())),
        },
        None => None,
    };
    Ok((Value::Obj(fields), rid))
}

fn meta_value<T: Serialize>(meta: &T) -> Option<Value> {
    Some(meta.to_value())
}

fn parse_meta<T: Deserialize>(v: &Value) -> Result<T, WireError> {
    T::from_value(v).map_err(|e| WireError::Body(e.to_string()))
}

/// Write one raw frame with one `write_vectored` call per attempt, so a
/// frame leaves a `TCP_NODELAY` socket as one segment where it fits, not as
/// separate header, meta and payload segments.
fn write_frame(w: &mut impl Write, kind: u8, meta: &str, payload: &[u8]) -> Result<(), WireError> {
    let meta_len = meta.len() as u64;
    let payload_len = payload.len() as u64;
    if meta_len + payload_len > MAX_FRAME {
        return Err(WireError::Oversized(meta_len + payload_len));
    }
    let mut header = [0u8; HEADER_LEN];
    header[0..2].copy_from_slice(&MAGIC.to_le_bytes());
    header[2] = VERSION;
    header[3] = kind;
    header[4..8].copy_from_slice(&(meta_len as u32).to_le_bytes());
    header[8..12].copy_from_slice(&(payload_len as u32).to_le_bytes());
    let mut parts = [
        IoSlice::new(&header),
        IoSlice::new(meta.as_bytes()),
        IoSlice::new(payload),
    ];
    write_all_vectored(w, &mut parts)?;
    w.flush()?;
    Ok(())
}

/// Write every byte of `bufs`, resuming after partial writes and retrying
/// interrupted ones.
fn write_all_vectored(w: &mut impl Write, mut bufs: &mut [IoSlice<'_>]) -> std::io::Result<()> {
    IoSlice::advance_slices(&mut bufs, 0);
    while !bufs.is_empty() {
        match w.write_vectored(bufs) {
            Ok(0) => {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::WriteZero,
                    "failed to write whole frame",
                ))
            }
            Ok(n) => IoSlice::advance_slices(&mut bufs, n),
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(())
}

/// Read one raw frame: validated header, then `(kind, meta, payload)`.
fn read_frame(r: &mut impl Read) -> Result<(u8, String, Vec<u8>), WireError> {
    let mut header = [0u8; HEADER_LEN];
    r.read_exact(&mut header)?;
    let magic = u16::from_le_bytes([header[0], header[1]]);
    if magic != MAGIC {
        return Err(WireError::BadMagic(magic));
    }
    if header[2] != VERSION {
        return Err(WireError::Version(header[2]));
    }
    let kind = header[3];
    let meta_len = u32::from_le_bytes([header[4], header[5], header[6], header[7]]) as u64;
    let payload_len = u32::from_le_bytes([header[8], header[9], header[10], header[11]]) as u64;
    if meta_len + payload_len > MAX_FRAME {
        return Err(WireError::Oversized(meta_len + payload_len));
    }
    let mut meta_bytes = vec![0u8; meta_len as usize];
    r.read_exact(&mut meta_bytes)?;
    let meta = String::from_utf8(meta_bytes)
        .map_err(|_| WireError::Body("meta section is not UTF-8".to_string()))?;
    let mut payload = vec![0u8; payload_len as usize];
    r.read_exact(&mut payload)?;
    Ok((kind, meta, payload))
}

/// Serialize and write one request frame (untraced).
pub fn write_request(w: &mut impl Write, req: &Request) -> Result<(), WireError> {
    write_request_traced(w, req, None)
}

/// Serialize and write one request frame, threading an optional request id
/// through the frame meta.
pub fn write_request_traced(
    w: &mut impl Write,
    req: &Request,
    rid: Option<u64>,
) -> Result<(), WireError> {
    let (kind_byte, meta, payload): (u8, Option<Value>, &[u8]) = match req {
        Request::Ping => (kind::PING, None, &[]),
        Request::GetCapacity => (kind::GET_CAPACITY, None, &[]),
        Request::StoreBlock {
            key,
            name,
            size,
            payload,
        } => (
            kind::STORE_BLOCK,
            meta_value(&StoreBlockMeta {
                key: *key,
                name: name.clone(),
                size: *size,
                has_payload: payload.is_some(),
            }),
            payload.as_deref().unwrap_or(&[]),
        ),
        Request::FetchBlock { name } => (
            kind::FETCH_BLOCK,
            meta_value(&FetchBlockMeta { name: name.clone() }),
            &[],
        ),
        Request::RepairRead { file, chunk } => (
            kind::REPAIR_READ,
            meta_value(&RepairReadMeta {
                file: file.clone(),
                chunk: *chunk,
            }),
            &[],
        ),
        Request::RemoveBlock { name, size } => (
            kind::REMOVE_BLOCK,
            meta_value(&RemoveBlockMeta {
                name: name.clone(),
                size: *size,
            }),
            &[],
        ),
        Request::Shutdown => (kind::SHUTDOWN, None, &[]),
        Request::GetStats => (kind::GET_STATS, None, &[]),
    };
    let meta = render_meta(meta, rid)?;
    write_frame(w, kind_byte, &meta, payload)
}

/// Read and parse one request frame, dropping any request id.
pub fn read_request(r: &mut impl Read) -> Result<Request, WireError> {
    read_request_traced(r).map(|(req, _)| req)
}

/// Read and parse one request frame along with the optional request id the
/// sender threaded through the meta (`None` = untraced).
pub fn read_request_traced(r: &mut impl Read) -> Result<(Request, Option<u64>), WireError> {
    let (kind_byte, meta, payload) = read_frame(r)?;
    let (meta, rid) = split_meta(&meta)?;
    let req = match kind_byte {
        kind::PING => Request::Ping,
        kind::GET_CAPACITY => Request::GetCapacity,
        kind::STORE_BLOCK => {
            let m: StoreBlockMeta = parse_meta(&meta)?;
            Request::StoreBlock {
                key: m.key,
                name: m.name,
                size: m.size,
                payload: m.has_payload.then_some(payload),
            }
        }
        kind::FETCH_BLOCK => {
            let m: FetchBlockMeta = parse_meta(&meta)?;
            Request::FetchBlock { name: m.name }
        }
        kind::REPAIR_READ => {
            let m: RepairReadMeta = parse_meta(&meta)?;
            Request::RepairRead {
                file: m.file,
                chunk: m.chunk,
            }
        }
        kind::REMOVE_BLOCK => {
            let m: RemoveBlockMeta = parse_meta(&meta)?;
            Request::RemoveBlock {
                name: m.name,
                size: m.size,
            }
        }
        kind::SHUTDOWN => Request::Shutdown,
        kind::GET_STATS => Request::GetStats,
        other => return Err(WireError::UnknownKind(other)),
    };
    Ok((req, rid))
}

/// Serialize and write one response frame (untraced).
pub fn write_response(w: &mut impl Write, resp: &Response) -> Result<(), WireError> {
    write_response_traced(w, resp, None)
}

/// Serialize and write one response frame, echoing the request id of the
/// request it answers.  Error replies stay untraced on the wire: their meta
/// is the error enum's encoding, not an extendable object — the caller
/// already knows which request the reply answers (one in flight per
/// connection).
pub fn write_response_traced(
    w: &mut impl Write,
    resp: &Response,
    rid: Option<u64>,
) -> Result<(), WireError> {
    match resp {
        Response::Pong { node } => {
            let meta = render_meta(meta_value(&PongMeta { node: *node }), rid)?;
            write_frame(w, kind::PONG, &meta, &[])
        }
        Response::Capacity { free } => {
            let meta = render_meta(meta_value(&CapacityMeta { free: *free }), rid)?;
            write_frame(w, kind::CAPACITY, &meta, &[])
        }
        Response::Stored => write_frame(w, kind::STORED, &render_meta(None, rid)?, &[]),
        Response::Block { block } => {
            let (found, size, payload) = match block {
                Some((size, payload)) => (true, *size, payload.as_deref()),
                None => (false, ByteSize::ZERO, None),
            };
            let meta = render_meta(
                meta_value(&BlockMeta {
                    found,
                    size,
                    has_payload: payload.is_some(),
                }),
                rid,
            )?;
            write_frame(w, kind::BLOCK, &meta, payload.unwrap_or(&[]))
        }
        Response::RepairBlocks { blocks } => {
            let mut joined = Vec::new();
            let metas: Vec<RepairBlockMeta> = blocks
                .iter()
                .map(|b| {
                    if let Some(p) = &b.payload {
                        joined.extend_from_slice(p);
                    }
                    RepairBlockMeta {
                        name: b.name.clone(),
                        size: b.size,
                        payload_len: b.payload.as_ref().map(|p| p.len() as u64),
                    }
                })
                .collect();
            let meta = render_meta(meta_value(&RepairBlocksMeta { blocks: metas }), rid)?;
            write_frame(w, kind::REPAIR_BLOCKS, &meta, &joined)
        }
        Response::Removed => write_frame(w, kind::REMOVED, &render_meta(None, rid)?, &[]),
        Response::ShuttingDown => {
            write_frame(w, kind::SHUTTING_DOWN, &render_meta(None, rid)?, &[])
        }
        Response::Stats { stats } => {
            let meta = render_meta(meta_value(stats.as_ref()), rid)?;
            write_frame(w, kind::STATS, &meta, &[])
        }
        Response::Error(e) => {
            let meta = render_meta(meta_value(e), None)?;
            write_frame(w, kind::ERROR, &meta, &[])
        }
    }
}

/// Read and parse one response frame, dropping any echoed request id.
pub fn read_response(r: &mut impl Read) -> Result<Response, WireError> {
    read_response_traced(r).map(|(resp, _)| resp)
}

/// Read and parse one response frame along with the optional request id the
/// responder echoed (`None` = untraced; error replies are always untraced).
pub fn read_response_traced(r: &mut impl Read) -> Result<(Response, Option<u64>), WireError> {
    let (kind_byte, meta, payload) = read_frame(r)?;
    let (meta, rid) = split_meta(&meta)?;
    let resp = read_response_body(kind_byte, &meta, payload)?;
    Ok((resp, rid))
}

fn read_response_body(
    kind_byte: u8,
    meta: &Value,
    payload: Vec<u8>,
) -> Result<Response, WireError> {
    match kind_byte {
        kind::PONG => {
            let m: PongMeta = parse_meta(meta)?;
            Ok(Response::Pong { node: m.node })
        }
        kind::CAPACITY => {
            let m: CapacityMeta = parse_meta(meta)?;
            Ok(Response::Capacity { free: m.free })
        }
        kind::STORED => Ok(Response::Stored),
        kind::BLOCK => {
            let m: BlockMeta = parse_meta(meta)?;
            Ok(Response::Block {
                block: m
                    .found
                    .then_some((m.size, m.has_payload.then_some(payload))),
            })
        }
        kind::REPAIR_BLOCKS => {
            let m: RepairBlocksMeta = parse_meta(meta)?;
            let declared: u64 = m.blocks.iter().filter_map(|b| b.payload_len).sum();
            if declared != payload.len() as u64 {
                return Err(WireError::Body(format!(
                    "repair payload lengths sum to {declared} but frame carries {}",
                    payload.len()
                )));
            }
            let mut offset = 0usize;
            let mut blocks = Vec::with_capacity(m.blocks.len());
            for b in m.blocks {
                let slice = match b.payload_len {
                    Some(len) => {
                        let len = len as usize;
                        let part = payload[offset..offset + len].to_vec();
                        offset += len;
                        Some(part)
                    }
                    None => None,
                };
                blocks.push(RepairBlock {
                    name: b.name,
                    size: b.size,
                    payload: slice,
                });
            }
            Ok(Response::RepairBlocks { blocks })
        }
        kind::REMOVED => Ok(Response::Removed),
        kind::SHUTTING_DOWN => Ok(Response::ShuttingDown),
        kind::STATS => {
            let stats: NodeStats = parse_meta(meta)?;
            Ok(Response::Stats {
                stats: Box::new(stats),
            })
        }
        kind::ERROR => {
            let e: RemoteError = parse_meta(meta)?;
            Ok(Response::Error(e))
        }
        other => Err(WireError::UnknownKind(other)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    fn roundtrip_request(req: Request) -> Request {
        let mut buf = Vec::new();
        write_request(&mut buf, &req).unwrap();
        read_request(&mut Cursor::new(buf)).unwrap()
    }

    fn roundtrip_response(resp: Response) -> Response {
        let mut buf = Vec::new();
        write_response(&mut buf, &resp).unwrap();
        read_response(&mut Cursor::new(buf)).unwrap()
    }

    #[test]
    fn requests_round_trip() {
        let reqs = vec![
            Request::Ping,
            Request::GetCapacity,
            Request::StoreBlock {
                key: Id::hash("k"),
                name: ObjectName::block("f", 2, 1),
                size: ByteSize::mb(1),
                payload: Some(vec![1, 2, 3]),
            },
            Request::StoreBlock {
                key: Id::hash("k2"),
                name: ObjectName::chunk("g", 0),
                size: ByteSize::kb(4),
                payload: None,
            },
            Request::FetchBlock {
                name: ObjectName::cat("f"),
            },
            Request::RepairRead {
                file: "f".to_string(),
                chunk: 3,
            },
            Request::RemoveBlock {
                name: ObjectName::block("f", 0, 0),
                size: ByteSize::mb(2),
            },
            Request::Shutdown,
            Request::GetStats,
        ];
        for req in reqs {
            assert_eq!(roundtrip_request(req.clone()), req);
        }
    }

    fn sample_stats() -> NodeStats {
        let mut reg = peerstripe_telemetry::MetricsRegistry::new();
        let c = reg.counter("node_requests_total", &[("op", "ping")]);
        reg.inc(c, 3);
        let h = reg.histogram("node_request_latency_ms", &[("op", "ping")], &[1.0, 10.0]);
        reg.observe(h, 0.2);
        NodeStats {
            node: Id::hash("node-0"),
            capacity: ByteSize::mb(64),
            used: ByteSize::kb(96),
            objects: 2,
            metrics: reg.export(),
            op_log: vec![
                OpLogEntry {
                    request_id: Some(7),
                    op: "store_block".to_string(),
                    duration_ms: 0.31,
                    outcome: "ok".to_string(),
                    slow: false,
                },
                OpLogEntry {
                    request_id: None,
                    op: "fetch_block".to_string(),
                    duration_ms: 120.5,
                    outcome: "ok".to_string(),
                    slow: true,
                },
                OpLogEntry {
                    request_id: Some(9),
                    op: "store_block".to_string(),
                    duration_ms: 0.02,
                    outcome: "insufficient_space".to_string(),
                    slow: false,
                },
            ],
        }
    }

    #[test]
    fn stats_frames_round_trip() {
        let resp = Response::Stats {
            stats: Box::new(sample_stats()),
        };
        assert_eq!(roundtrip_response(resp.clone()), resp);
        assert_eq!(roundtrip_request(Request::GetStats), Request::GetStats);
    }

    #[test]
    fn request_ids_round_trip_on_every_kind() {
        let reqs = vec![
            Request::Ping, // field-less: the meta object exists only for the id
            Request::GetStats,
            Request::StoreBlock {
                key: Id::hash("k"),
                name: ObjectName::block("f", 2, 1),
                size: ByteSize::mb(1),
                payload: Some(vec![1, 2, 3]),
            },
            Request::FetchBlock {
                name: ObjectName::cat("f"),
            },
        ];
        for (i, req) in reqs.into_iter().enumerate() {
            let rid = 1000 + i as u64;
            let mut buf = Vec::new();
            write_request_traced(&mut buf, &req, Some(rid)).unwrap();
            let (back, got) = read_request_traced(&mut Cursor::new(buf)).unwrap();
            assert_eq!(back, req);
            assert_eq!(got, Some(rid));
        }
        let resps = vec![
            Response::Stored,
            Response::Pong {
                node: Id::hash("n"),
            },
            Response::Stats {
                stats: Box::new(sample_stats()),
            },
        ];
        for (i, resp) in resps.into_iter().enumerate() {
            let rid = 2000 + i as u64;
            let mut buf = Vec::new();
            write_response_traced(&mut buf, &resp, Some(rid)).unwrap();
            let (back, got) = read_response_traced(&mut Cursor::new(buf)).unwrap();
            assert_eq!(back, resp);
            assert_eq!(got, Some(rid));
        }
    }

    #[test]
    fn absent_request_id_reads_as_untraced() {
        let mut buf = Vec::new();
        write_request(&mut buf, &Request::Ping).unwrap();
        // Untraced field-less frames keep the zero-byte meta of protocol v1.
        assert_eq!(u32::from_le_bytes(buf[4..8].try_into().unwrap()), 0);
        let (req, rid) = read_request_traced(&mut Cursor::new(buf)).unwrap();
        assert_eq!(req, Request::Ping);
        assert_eq!(rid, None);

        // A traced frame still parses for an id-oblivious reader.
        let mut traced = Vec::new();
        write_request_traced(
            &mut traced,
            &Request::FetchBlock {
                name: ObjectName::cat("f"),
            },
            Some(42),
        )
        .unwrap();
        assert_eq!(
            read_request(&mut Cursor::new(traced)).unwrap(),
            Request::FetchBlock {
                name: ObjectName::cat("f"),
            }
        );
    }

    #[test]
    fn error_replies_are_never_traced() {
        let mut buf = Vec::new();
        write_response_traced(
            &mut buf,
            &Response::Error(RemoteError::InsufficientSpace),
            Some(7),
        )
        .unwrap();
        let (resp, rid) = read_response_traced(&mut Cursor::new(buf)).unwrap();
        assert_eq!(resp, Response::Error(RemoteError::InsufficientSpace));
        assert_eq!(rid, None, "error metas cannot carry a request id");
    }

    #[test]
    fn responses_round_trip() {
        let resps = vec![
            Response::Pong {
                node: Id::hash("n"),
            },
            Response::Capacity {
                free: ByteSize::gb(3),
            },
            Response::Stored,
            Response::Block { block: None },
            Response::Block {
                block: Some((ByteSize::mb(1), Some(vec![9, 8, 7]))),
            },
            Response::Block {
                block: Some((ByteSize::mb(1), None)),
            },
            Response::RepairBlocks {
                blocks: vec![
                    RepairBlock {
                        name: ObjectName::block("f", 0, 0),
                        size: ByteSize::kb(1),
                        payload: Some(vec![1, 2]),
                    },
                    RepairBlock {
                        name: ObjectName::block("f", 0, 1),
                        size: ByteSize::kb(1),
                        payload: None,
                    },
                    RepairBlock {
                        name: ObjectName::block("f", 0, 2),
                        size: ByteSize::kb(1),
                        payload: Some(vec![3, 4, 5]),
                    },
                ],
            },
            Response::Removed,
            Response::ShuttingDown,
            Response::Error(RemoteError::InsufficientSpace),
            Response::Error(RemoteError::AlreadyStored),
            Response::Error(RemoteError::BadRequest {
                detail: "nope".to_string(),
            }),
        ];
        for resp in resps {
            assert_eq!(roundtrip_response(resp.clone()), resp);
        }
    }

    #[test]
    fn bad_magic_is_rejected_before_the_body() {
        let mut buf = Vec::new();
        write_request(&mut buf, &Request::Ping).unwrap();
        buf[0] = 0x00;
        match read_request(&mut Cursor::new(buf)) {
            Err(WireError::BadMagic(_)) => {}
            other => panic!("expected BadMagic, got {other:?}"),
        }
    }

    #[test]
    fn version_mismatch_is_rejected() {
        let mut buf = Vec::new();
        write_request(&mut buf, &Request::Ping).unwrap();
        buf[2] = VERSION + 1;
        match read_request(&mut Cursor::new(buf)) {
            Err(WireError::Version(v)) => assert_eq!(v, VERSION + 1),
            other => panic!("expected Version, got {other:?}"),
        }
    }

    #[test]
    fn oversized_frames_are_rejected_without_allocation() {
        let mut buf = Vec::new();
        write_request(&mut buf, &Request::Ping).unwrap();
        // Declare a payload far past MAX_FRAME; no such bytes follow.
        buf[8..12].copy_from_slice(&u32::MAX.to_le_bytes());
        match read_request(&mut Cursor::new(buf)) {
            Err(WireError::Oversized(n)) => assert!(n > MAX_FRAME),
            other => panic!("expected Oversized, got {other:?}"),
        }
    }

    #[test]
    fn truncated_frames_are_rejected() {
        let mut buf = Vec::new();
        write_request(
            &mut buf,
            &Request::StoreBlock {
                key: Id::hash("k"),
                name: ObjectName::block("f", 0, 0),
                size: ByteSize::mb(1),
                payload: Some(vec![0; 64]),
            },
        )
        .unwrap();
        for cut in [1, HEADER_LEN - 1, HEADER_LEN + 3, buf.len() - 1] {
            match read_request(&mut Cursor::new(&buf[..cut])) {
                Err(WireError::Truncated) => {}
                other => panic!("cut at {cut}: expected Truncated, got {other:?}"),
            }
        }
    }

    #[test]
    fn unknown_kind_bytes_are_rejected() {
        let mut buf = Vec::new();
        write_request(&mut buf, &Request::Ping).unwrap();
        buf[3] = 0x70;
        match read_request(&mut Cursor::new(buf.clone())) {
            Err(WireError::UnknownKind(0x70)) => {}
            other => panic!("expected UnknownKind, got {other:?}"),
        }
        // A response kind is unknown to the request reader and vice versa.
        let mut pong = Vec::new();
        write_response(
            &mut pong,
            &Response::Pong {
                node: Id::hash("n"),
            },
        )
        .unwrap();
        assert!(matches!(
            read_request(&mut Cursor::new(pong)),
            Err(WireError::UnknownKind(k)) if k == kind::PONG
        ));
    }

    /// A socket-like sink: accepts up to `max_chunk` bytes per call across
    /// all the slices it is handed, fails the first `interrupts` calls with
    /// `Interrupted`, and counts both kinds of write call.
    struct CountingWriter {
        bytes: Vec<u8>,
        max_chunk: usize,
        interrupts: usize,
        writes: usize,
        vectored_writes: usize,
    }

    impl CountingWriter {
        fn new(max_chunk: usize, interrupts: usize) -> Self {
            CountingWriter {
                bytes: Vec::new(),
                max_chunk,
                interrupts,
                writes: 0,
                vectored_writes: 0,
            }
        }
    }

    impl Write for CountingWriter {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.writes += 1;
            let n = buf.len().min(self.max_chunk);
            self.bytes.extend_from_slice(&buf[..n]);
            Ok(n)
        }

        fn write_vectored(&mut self, bufs: &[IoSlice<'_>]) -> std::io::Result<usize> {
            self.vectored_writes += 1;
            if self.interrupts > 0 {
                self.interrupts -= 1;
                return Err(std::io::ErrorKind::Interrupted.into());
            }
            let mut left = self.max_chunk;
            for buf in bufs {
                let n = buf.len().min(left);
                self.bytes.extend_from_slice(&buf[..n]);
                left -= n;
            }
            Ok(self.max_chunk - left)
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    fn sample_store() -> Request {
        Request::StoreBlock {
            key: Id::hash("k"),
            name: ObjectName::block("f", 0, 0),
            size: ByteSize::kb(1),
            payload: Some((0..=255u8).collect()),
        }
    }

    #[test]
    fn a_small_frame_is_one_write_call() {
        let mut expected = Vec::new();
        write_request_traced(&mut expected, &sample_store(), Some(9)).unwrap();
        let mut sink = CountingWriter::new(usize::MAX, 0);
        write_request_traced(&mut sink, &sample_store(), Some(9)).unwrap();
        assert_eq!(
            sink.vectored_writes, 1,
            "header, meta and payload in one call"
        );
        assert_eq!(sink.writes, 0);
        assert_eq!(sink.bytes, expected);
    }

    #[test]
    fn partial_and_interrupted_writes_still_deliver_the_whole_frame() {
        let mut expected = Vec::new();
        write_request_traced(&mut expected, &sample_store(), Some(9)).unwrap();
        // Chunks of 5 bytes cut through the header, the meta and the payload.
        let mut sink = CountingWriter::new(5, 2);
        write_request_traced(&mut sink, &sample_store(), Some(9)).unwrap();
        assert_eq!(sink.bytes, expected);
        assert_eq!(sink.vectored_writes, 2 + expected.len().div_ceil(5));
        let (req, rid) = read_request_traced(&mut Cursor::new(sink.bytes)).unwrap();
        assert_eq!(req, sample_store());
        assert_eq!(rid, Some(9));
    }

    #[test]
    fn a_sink_that_accepts_nothing_fails_the_write() {
        let mut sink = CountingWriter::new(0, 0);
        assert!(matches!(
            write_request(&mut sink, &Request::Ping),
            Err(WireError::Io(e)) if e.kind() == std::io::ErrorKind::WriteZero
        ));
    }

    #[test]
    fn oversized_writes_are_refused() {
        let req = Request::StoreBlock {
            key: Id::hash("k"),
            name: ObjectName::block("f", 0, 0),
            size: ByteSize::mb(32),
            payload: Some(vec![0u8; MAX_FRAME as usize + 1]),
        };
        let mut buf = Vec::new();
        assert!(matches!(
            write_request(&mut buf, &req),
            Err(WireError::Oversized(_))
        ));
    }

    #[test]
    fn repair_payload_length_mismatch_is_rejected() {
        let mut buf = Vec::new();
        write_response(
            &mut buf,
            &Response::RepairBlocks {
                blocks: vec![RepairBlock {
                    name: ObjectName::block("f", 0, 0),
                    size: ByteSize::kb(1),
                    payload: Some(vec![1, 2, 3, 4]),
                }],
            },
        )
        .unwrap();
        // Corrupt the payload length in the frame header: shrink by one byte
        // and drop the final payload byte so the frame still reads fully.
        let payload_len = u32::from_le_bytes([buf[8], buf[9], buf[10], buf[11]]);
        buf[8..12].copy_from_slice(&(payload_len - 1).to_le_bytes());
        buf.pop();
        assert!(matches!(
            read_response(&mut Cursor::new(buf)),
            Err(WireError::Body(_))
        ));
    }
}
