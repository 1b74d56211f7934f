//! The traced run's only instrument: a delegating wrapper around the backend
//! the unchanged `PeerStripe` client drives.
//!
//! [`Traced`] implements the client's whole backend seam (`ClusterView`,
//! `ProbeView`, `StorageBackend`) by forwarding every call to the wrapped
//! backend and recording a [`Span`] for it.  The harness brackets each user
//! operation with [`Layered::begin_op`] / [`Layered::end_op`], so every call
//! span carries the id of the operation that issued it.  Spans stay in
//! memory and are written out once, when the run ends.
//!
//! The untraced run drives the bare backend: [`Layered`] gives it the same
//! surface with no-op operation brackets.

use peerstripe_core::{
    ClusterStoreError, FetchedBlock, ObjectName, StorageBackend, StorageCluster,
};
use peerstripe_net::RingGateway;
use peerstripe_overlay::{Id, NodeRef};
use peerstripe_placement::{ClusterView, ProbeView};
use peerstripe_sim::ByteSize;
use std::cell::{Cell, RefCell};
use std::time::Instant;

/// One timed interval: a user operation (`parent == 0`) or one backend call
/// made inside the operation `parent`.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Span id, unique within one run.
    pub id: u64,
    /// The enclosing operation's id; 0 for operations themselves.
    pub parent: u64,
    /// Operation kind (`store`, `fetch`, ...) or backend call name.
    pub name: &'static str,
    /// Start, in nanoseconds since the log was created.
    pub start_ns: u64,
    /// Duration in nanoseconds.
    pub dur_ns: u64,
    /// Whether the call succeeded (always true for operations).
    pub ok: bool,
}

impl Span {
    /// Duration in milliseconds.
    pub fn ms(&self) -> f64 {
        self.dur_ns as f64 / 1e6
    }

    /// One JSONL record.
    pub fn jsonl(&self, round: usize) -> String {
        format!(
            "{{\"round\":{round},\"id\":{},\"parent\":{},\"name\":\"{}\",\"start_ns\":{},\"dur_ns\":{},\"ok\":{}}}",
            self.id, self.parent, self.name, self.start_ns, self.dur_ns, self.ok
        )
    }
}

/// In-memory span storage for one client.
#[derive(Debug)]
pub struct SpanLog {
    epoch: Instant,
    spans: RefCell<Vec<Span>>,
    next_id: Cell<u64>,
    /// The open operation: id, kind and start.
    open: Cell<Option<(u64, &'static str, Instant)>>,
}

impl SpanLog {
    fn new() -> Self {
        SpanLog {
            epoch: Instant::now(),
            spans: RefCell::new(Vec::new()),
            next_id: Cell::new(1),
            open: Cell::new(None),
        }
    }

    fn fresh_id(&self) -> u64 {
        let id = self.next_id.get();
        self.next_id.set(id + 1);
        id
    }

    fn push(&self, parent: u64, name: &'static str, start: Instant, end: Instant, ok: bool) {
        let span = Span {
            id: self.fresh_id(),
            parent,
            name,
            start_ns: start.duration_since(self.epoch).as_nanos() as u64,
            dur_ns: end.duration_since(start).as_nanos() as u64,
            ok,
        };
        self.spans.borrow_mut().push(span);
    }

    /// Time `f` as a backend call inside the open operation.
    fn call<T>(&self, name: &'static str, ok: impl Fn(&T) -> bool, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let value = f();
        let end = Instant::now();
        let parent = self.open.get().map_or(0, |(id, _, _)| id);
        self.push(parent, name, start, end, ok(&value));
        value
    }

    fn begin(&self, kind: &'static str) {
        let id = self.fresh_id();
        self.open.set(Some((id, kind, Instant::now())));
    }

    fn end(&self) {
        if let Some((id, kind, start)) = self.open.take() {
            let end = Instant::now();
            self.spans.borrow_mut().push(Span {
                id,
                parent: 0,
                name: kind,
                start_ns: start.duration_since(self.epoch).as_nanos() as u64,
                dur_ns: end.duration_since(start).as_nanos() as u64,
                ok: true,
            });
        }
    }

    /// Every span recorded so far, in completion order.
    pub fn take(&self) -> Vec<Span> {
        std::mem::take(&mut *self.spans.borrow_mut())
    }
}

/// A backend wrapped so that every call through the client's seam is timed.
pub struct Traced<B> {
    inner: B,
    log: SpanLog,
}

impl<B> Traced<B> {
    /// Wrap `inner`.
    pub fn new(inner: B) -> Self {
        Traced {
            inner,
            log: SpanLog::new(),
        }
    }
}

/// The surface the harness needs from whatever backend the client drives:
/// the bare backend underneath and operation brackets for attribution.
pub trait Layered: StorageBackend {
    /// The unwrapped backend.
    type Base;
    /// The unwrapped backend.
    fn base(&self) -> &Self::Base;
    /// The unwrapped backend, mutably.
    fn base_mut(&mut self) -> &mut Self::Base;
    /// Open user operation `kind`; later calls are attributed to it.
    fn begin_op(&self, _kind: &'static str) {}
    /// Close the open user operation.
    fn end_op(&self) {}
    /// Drain the recorded spans (`None` when untraced).
    fn take_spans(&self) -> Option<Vec<Span>> {
        None
    }
}

impl Layered for RingGateway {
    type Base = RingGateway;
    fn base(&self) -> &RingGateway {
        self
    }
    fn base_mut(&mut self) -> &mut RingGateway {
        self
    }
}

impl Layered for StorageCluster {
    type Base = StorageCluster;
    fn base(&self) -> &StorageCluster {
        self
    }
    fn base_mut(&mut self) -> &mut StorageCluster {
        self
    }
}

impl<B: StorageBackend> Layered for Traced<B> {
    type Base = B;
    fn base(&self) -> &B {
        &self.inner
    }
    fn base_mut(&mut self) -> &mut B {
        &mut self.inner
    }
    fn begin_op(&self, kind: &'static str) {
        self.log.begin(kind);
    }
    fn end_op(&self) {
        self.log.end();
    }
    fn take_spans(&self) -> Option<Vec<Span>> {
        Some(self.log.take())
    }
}

fn always<T>(_: &T) -> bool {
    true
}

impl<B: StorageBackend> ClusterView for Traced<B> {
    fn route_quiet(&self, key: Id) -> Option<NodeRef> {
        self.log.call("route_quiet", Option::is_some, || {
            self.inner.route_quiet(key)
        })
    }

    fn is_alive(&self, node: NodeRef) -> bool {
        self.log
            .call("is_alive", always, || self.inner.is_alive(node))
    }

    fn can_store(&self, node: NodeRef, size: ByteSize) -> bool {
        self.log
            .call("can_store", always, || self.inner.can_store(node, size))
    }

    fn report_of(&self, node: NodeRef) -> ByteSize {
        self.log
            .call("report_of", always, || self.inner.report_of(node))
    }

    fn node_count(&self) -> usize {
        self.log
            .call("node_count", always, || self.inner.node_count())
    }

    fn alive_nodes(&self) -> Vec<NodeRef> {
        self.log
            .call("alive_nodes", always, || self.inner.alive_nodes())
    }
}

impl<B: StorageBackend> ProbeView for Traced<B> {
    fn probe(&mut self, key: Id) -> Option<(NodeRef, ByteSize)> {
        let Traced { inner, log } = self;
        log.call("probe", Option::is_some, || inner.probe(key))
    }
}

impl<B: StorageBackend> StorageBackend for Traced<B> {
    fn route_lookup(&mut self, key: Id) -> Option<NodeRef> {
        let Traced { inner, log } = self;
        log.call("route_lookup", Option::is_some, || inner.route_lookup(key))
    }

    fn store_block(
        &mut self,
        node: NodeRef,
        key: Id,
        name: ObjectName,
        size: ByteSize,
        payload: Option<Vec<u8>>,
    ) -> Result<NodeRef, ClusterStoreError> {
        let Traced { inner, log } = self;
        log.call("store_block", Result::is_ok, || {
            inner.store_block(node, key, name, size, payload)
        })
    }

    fn fetch_block(&self, node: NodeRef, name: &ObjectName) -> Option<FetchedBlock> {
        self.log.call("fetch_block", Option::is_some, || {
            self.inner.fetch_block(node, name)
        })
    }

    fn rollback_block(&mut self, node: NodeRef, name: &ObjectName, size: ByteSize) {
        let Traced { inner, log } = self;
        log.call("rollback_block", always, || {
            inner.rollback_block(node, name, size)
        })
    }

    fn replica_targets(&self, key: Id, k: usize) -> Vec<(Id, NodeRef)> {
        self.log.call("replica_targets", always, || {
            self.inner.replica_targets(key, k)
        })
    }
}
