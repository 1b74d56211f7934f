//! The PeerStripe storage system (the paper's contribution).
//!
//! [`PeerStripe`] implements the store/retrieve protocol of Section 4:
//!
//! 1. a file is split into **varying-size chunks**, each sized by what the
//!    prospective target nodes report through `getCapacity` probes (Section 4.3);
//! 2. every chunk is erasure coded into blocks named `file_chunk_ecb`, which the
//!    DHT scatters over independent nodes (Section 4.2);
//! 3. the chunk allocation table is stored (and replicated) under `file.CAT`;
//! 4. placement retries are expressed as zero-sized chunks, bounded by a
//!    consecutive-zero-chunk limit after which the store fails;
//! 5. on node failure, lost blocks are regenerated from the surviving blocks of
//!    their chunk and placed on the inheriting neighbour — or elsewhere if that
//!    neighbour is short on space (the paper's "drop and recreate" policy).
//!
//! Two data paths are provided: the *placement* path used by the large-scale
//! simulations (sizes only, no payload bytes) and the *byte* path used by the
//! examples and integration tests (real chunk payloads run through the real
//! erasure codecs of `peerstripe-erasure`).

use crate::backend::{BlockWrite, StorageBackend};
use crate::cat::ChunkAllocationTable;
use crate::cluster::StorageCluster;
use crate::metrics::StoreMetrics;
use crate::naming::ObjectName;
use crate::policy::CodingPolicy;
use crate::system::{
    BlockPlacement, ChunkPlacement, FileManifest, ManifestStore, StorageSystem, StoreOutcome,
};
use peerstripe_erasure::EncodedBlock;
use peerstripe_overlay::{Id, NodeRef, Takeover};
use peerstripe_placement::{OverlayRandom, PlacementStrategy, RepairRequest, Topology};
use peerstripe_sim::{ByteSize, DetRng};
use peerstripe_trace::FileRecord;
use serde::{Deserialize, Serialize};

/// Configuration of a PeerStripe instance.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PeerStripeConfig {
    /// Erasure-coding policy applied per chunk.
    pub coding: CodingPolicy,
    /// Maximum number of consecutive zero-sized chunks before a store fails
    /// (the paper's simulations use 5).
    pub zero_chunk_limit: u32,
    /// Total number of CAT copies kept (primary + replicas on leaf-set neighbours).
    pub cat_replicas: usize,
    /// Optional upper bound on chunk size (the Section 4.5 trade-off knob).
    pub max_chunk_size: Option<ByteSize>,
    /// Whether to record per-file manifests (needed for availability/recovery
    /// experiments and for retrieval; disabled to bound memory in huge sweeps).
    pub track_manifests: bool,
    /// Number of source blocks per chunk used by the byte-level data path codec.
    pub data_path_blocks: usize,
}

impl Default for PeerStripeConfig {
    fn default() -> Self {
        PeerStripeConfig {
            coding: CodingPolicy::None,
            zero_chunk_limit: 5,
            cat_replicas: 2,
            max_chunk_size: None,
            track_manifests: true,
            data_path_blocks: 16,
        }
    }
}

impl PeerStripeConfig {
    /// The configuration used for the Figure 7–9 simulations: no coding, zero
    /// chunk limit 5, full-capacity reports.
    pub fn paper_simulation() -> Self {
        PeerStripeConfig::default()
    }

    /// Use the given coding policy.
    pub fn with_coding(mut self, coding: CodingPolicy) -> Self {
        self.coding = coding;
        self
    }

    /// Disable manifest tracking.
    pub fn without_manifests(mut self) -> Self {
        self.track_manifests = false;
        self
    }
}

/// Outcome of regenerating the blocks lost with a failed node (Section 4.4).
#[derive(Debug, Clone, Copy, Default)]
pub struct RecoveryReport {
    /// Number of encoded blocks regenerated.
    pub blocks_regenerated: u64,
    /// Bytes of encoded blocks regenerated.
    pub bytes_regenerated: ByteSize,
    /// Number of chunks that could not be recovered (too many blocks lost).
    pub chunks_lost: u64,
    /// Bytes of user data in unrecoverable chunks.
    pub bytes_lost: ByteSize,
    /// Number of CAT replicas re-created.
    pub cats_replicated: u64,
}

/// The PeerStripe storage system.
///
/// Generic over its [`StorageBackend`]: the in-process [`StorageCluster`]
/// simulator by default (every existing experiment), or `peerstripe-net`'s
/// gateway to drive live `peerstripe-node` daemons over TCP — the store,
/// retrieve, and recovery paths are the same code either way.
pub struct PeerStripe<B: StorageBackend = StorageCluster> {
    backend: B,
    config: PeerStripeConfig,
    manifests: ManifestStore,
    metrics: StoreMetrics,
    placement: Box<dyn PlacementStrategy>,
    topology: Option<Topology>,
}

impl<B: StorageBackend> PeerStripe<B> {
    /// Create a PeerStripe instance over an existing backend, placing blocks
    /// through the classic overlay routing (the paper's behaviour).
    pub fn new(backend: B, config: PeerStripeConfig) -> Self {
        Self::with_placement(backend, config, Box::new(OverlayRandom::new()), None)
    }

    /// Create a PeerStripe instance with an explicit placement strategy and
    /// (optionally) the failure-domain topology it consults.  Domain-aware
    /// strategies cap each chunk at the coding policy's tolerable losses per
    /// domain, and every placed block's domain is recorded in the manifest.
    pub fn with_placement(
        backend: B,
        config: PeerStripeConfig,
        placement: Box<dyn PlacementStrategy>,
        topology: Option<Topology>,
    ) -> Self {
        PeerStripe {
            backend,
            config,
            manifests: ManifestStore::new(),
            metrics: StoreMetrics::new(),
            placement,
            topology,
        }
    }

    /// The backend this instance drives.
    pub fn backend(&self) -> &B {
        &self.backend
    }

    /// Mutable access to the backend.
    pub fn backend_mut(&mut self) -> &mut B {
        &mut self.backend
    }

    /// Consume the system and return its backend.
    pub fn into_backend(self) -> B {
        self.backend
    }

    /// The manifest of a stored file, if manifests are being tracked.
    pub fn manifest(&self, name: &str) -> Option<&FileManifest> {
        self.manifests.get(name)
    }

    /// All manifests (for availability sweeps).
    pub fn manifests(&self) -> &ManifestStore {
        &self.manifests
    }

    /// True if a previously stored file is still retrievable from the backend.
    pub fn is_file_available(&self, name: &str) -> bool {
        self.manifest(name)
            .map(|m| m.is_available(&self.backend))
            .unwrap_or(false)
    }

    /// The instance's configuration.
    pub fn config(&self) -> &PeerStripeConfig {
        &self.config
    }

    /// The failure-domain topology placement consults, if any.
    pub fn topology(&self) -> Option<&Topology> {
        self.topology.as_ref()
    }

    /// The name of the placement strategy in use.
    pub fn placement_name(&self) -> &'static str {
        self.placement.name()
    }

    /// The per-domain block cap placement enforces for each chunk: with a
    /// topology, a single failure domain may never hold more blocks of a
    /// chunk than the coding policy tolerates losing (so losing a whole
    /// domain can never make the chunk unrecoverable).
    pub fn domain_cap(&self) -> usize {
        if self.topology.is_some() {
            self.config.coding.tolerable_losses().max(1)
        } else {
            usize::MAX
        }
    }

    /// The domain a node belongs to under the configured topology.
    fn domain_of(&self, node: NodeRef) -> Option<peerstripe_placement::DomainId> {
        self.topology.as_ref().and_then(|t| t.domain_of(node))
    }

    /// Object name for one placed block of a chunk under the current policy.
    fn block_name(&self, file: &str, chunk: u32, ecb: u32) -> ObjectName {
        if matches!(self.config.coding, CodingPolicy::None) && ecb == 0 {
            // Without coding a chunk is stored as a single object named after the
            // chunk itself, exactly as in the Figure 7–9 simulations.
            ObjectName::chunk(file, chunk)
        } else {
            ObjectName::block(file, chunk, ecb)
        }
    }

    /// Select the target nodes of the next chunk's blocks through the
    /// placement strategy and derive the chunk size from their capacity
    /// reports.
    ///
    /// Returns the selected `(name, node)` pairs and the achievable chunk
    /// size, which is zero when any selected node reports no space — or when
    /// the strategy refuses the chunk outright (e.g. domain-aware placement
    /// cannot satisfy its spread constraint right now).
    fn plan_chunk(
        &mut self,
        file: &str,
        chunk: u32,
        remaining: ByteSize,
    ) -> (Vec<(ObjectName, NodeRef)>, ByteSize) {
        let m = self.config.coding.placed_blocks();
        let names: Vec<ObjectName> = (0..m as u32)
            .map(|ecb| self.block_name(file, chunk, ecb))
            .collect();
        let keys: Vec<Id> = names.iter().map(ObjectName::key).collect();
        let cap = self.domain_cap();
        let Some(picks) =
            self.placement
                .plan_chunk(&mut self.backend, self.topology.as_ref(), &keys, cap)
        else {
            return (Vec::new(), ByteSize::ZERO);
        };
        debug_assert_eq!(picks.len(), names.len());
        let mut min_report = ByteSize(u64::MAX);
        let mut targets = Vec::with_capacity(m);
        for (name, (node, report)) in names.into_iter().zip(picks) {
            min_report = min_report.min(report);
            targets.push((name, node));
        }
        let mut chunk_size = self.config.coding.chunk_size_for_report(min_report);
        if let Some(cap) = self.config.max_chunk_size {
            chunk_size = chunk_size.min(cap);
        }
        (targets, chunk_size.min(remaining))
    }

    /// Place the blocks of a chunk on their probed targets, all in one
    /// [`StorageBackend::store_blocks`] batch.  On any refusal every block
    /// that did land is rolled back and the chunk is treated as zero-sized
    /// (the capacity changed between the probe and the store, Section 4.3).
    fn place_chunk(
        &mut self,
        targets: &[(ObjectName, NodeRef)],
        chunk: u32,
        chunk_size: ByteSize,
        payloads: Option<Vec<Vec<u8>>>,
    ) -> Option<ChunkPlacement> {
        let block_size = self.config.coding.block_size(chunk_size);
        let mut payloads = payloads.map(Vec::into_iter);
        let writes: Vec<BlockWrite> = targets
            .iter()
            .map(|(name, node)| {
                let payload = payloads.as_mut().and_then(Iterator::next);
                BlockWrite {
                    node: *node,
                    key: name.key(),
                    name: name.clone(),
                    size: payload
                        .as_ref()
                        .map_or(block_size, |p| ByteSize::bytes(p.len() as u64)),
                    payload,
                }
            })
            .collect();
        let blocks: Vec<BlockPlacement> = writes
            .iter()
            .map(|w| BlockPlacement {
                name: w.name.clone(),
                node: w.node,
                size: w.size,
                domain: self.domain_of(w.node),
            })
            .collect();
        let results = self.backend.store_blocks(writes);
        if results.len() != blocks.len() || results.iter().any(Result::is_err) {
            for (b, result) in blocks.iter().zip(&results) {
                if result.is_ok() {
                    self.backend.rollback_block(b.node, &b.name, b.size);
                }
            }
            return None;
        }
        Some(ChunkPlacement {
            chunk,
            size: chunk_size,
            blocks,
            min_blocks_needed: self.config.coding.min_blocks_needed(),
        })
    }

    /// Roll back every block of a partially stored file.
    fn rollback(&mut self, chunks: &[ChunkPlacement]) {
        for c in chunks {
            for b in &c.blocks {
                self.backend.rollback_block(b.node, &b.name, b.size);
            }
        }
    }

    /// Store the CAT object and its replicas; returns the nodes holding copies.
    fn store_cat(&mut self, file: &str, cat: &ChunkAllocationTable) -> Vec<NodeRef> {
        let name = ObjectName::cat(file);
        let size = cat.serialized_size();
        // Primary copy at the key's root, replicas on the numerically closest
        // neighbours (the leaf-set replication of Section 4.4).
        let replicas = self.config.cat_replicas.max(1);
        let targets = self.backend.replica_targets(name.key(), replicas);
        // Only the primary charges a lookup (the replicas ride the leaf set).
        if !targets.is_empty() {
            let _ = self.backend.route_lookup(name.key());
        }
        // Each copy is an independent object so per-node keys stay unique.
        let writes = targets
            .iter()
            .enumerate()
            .map(|(i, &(_, node))| BlockWrite {
                node,
                key: ObjectName::cat(format!("{file}#r{i}")).key(),
                name: name.clone(),
                size,
                payload: None,
            })
            .collect();
        let results = self.backend.store_blocks(writes);
        targets
            .into_iter()
            .zip(results)
            .filter_map(|((_, node), result)| result.is_ok().then_some(node))
            .collect()
    }

    /// Core store loop shared by the placement path and the byte path.
    fn store_internal(&mut self, file: &FileRecord, data: Option<&[u8]>) -> StoreOutcome {
        let mut remaining = file.size;
        let mut offset: u64 = 0;
        let mut chunk_no: u32 = 0;
        let mut consecutive_zero: u32 = 0;
        let mut chunk_sizes: Vec<ByteSize> = Vec::new();
        let mut placements: Vec<ChunkPlacement> = Vec::new();
        let mut placed_bytes = ByteSize::ZERO;

        while !remaining.is_zero() {
            if consecutive_zero > self.config.zero_chunk_limit {
                self.rollback(&placements);
                self.metrics.record_failure(file.size);
                return StoreOutcome::Failed {
                    reason: format!(
                        "exceeded {} consecutive zero-sized chunks at chunk {}",
                        self.config.zero_chunk_limit, chunk_no
                    ),
                };
            }
            let (targets, chunk_size) = self.plan_chunk(&file.name, chunk_no, remaining);
            if chunk_size.is_zero() || targets.is_empty() {
                chunk_sizes.push(ByteSize::ZERO);
                placements.push(ChunkPlacement {
                    chunk: chunk_no,
                    size: ByteSize::ZERO,
                    blocks: Vec::new(),
                    min_blocks_needed: self.config.coding.min_blocks_needed(),
                });
                consecutive_zero += 1;
                chunk_no += 1;
                continue;
            }
            // Byte path: cut and encode the actual chunk payload.
            let payloads: Option<Vec<Vec<u8>>> = data.map(|bytes| {
                let start = offset as usize;
                let end = (offset + chunk_size.as_u64()) as usize;
                let chunk_data = &bytes[start..end.min(bytes.len())];
                let codec = self.config.coding.codec(self.config.data_path_blocks);
                let blocks = codec.encode(chunk_data);
                // Spread the codec's encoded blocks over the placed block objects.
                distribute_payloads(&self.config.coding, blocks, targets.len())
            });
            match self.place_chunk(&targets, chunk_no, chunk_size, payloads) {
                Some(placement) => {
                    placed_bytes += placement.blocks.iter().map(|b| b.size).sum();
                    chunk_sizes.push(chunk_size);
                    placements.push(placement);
                    remaining -= chunk_size;
                    offset += chunk_size.as_u64();
                    consecutive_zero = 0;
                    chunk_no += 1;
                }
                None => {
                    chunk_sizes.push(ByteSize::ZERO);
                    placements.push(ChunkPlacement {
                        chunk: chunk_no,
                        size: ByteSize::ZERO,
                        blocks: Vec::new(),
                        min_blocks_needed: self.config.coding.min_blocks_needed(),
                    });
                    consecutive_zero += 1;
                    chunk_no += 1;
                }
            }
        }

        let cat = ChunkAllocationTable::from_chunk_sizes(&chunk_sizes);
        let cat_nodes = self.store_cat(&file.name, &cat);
        placed_bytes += cat.serialized_size() * cat_nodes.len() as u64;
        self.metrics
            .record_success(file.size, &chunk_sizes, placed_bytes);
        if self.config.track_manifests {
            self.manifests.insert(FileManifest {
                name: file.name.clone(),
                size: file.size,
                chunks: placements,
                cat_nodes,
            });
        }
        StoreOutcome::Stored
    }

    /// Store real bytes under a name; the returned outcome mirrors [`StorageSystem::store_file`].
    pub fn store_data(&mut self, name: &str, data: &[u8]) -> StoreOutcome {
        let record = FileRecord::new(name, ByteSize::bytes(data.len() as u64));
        self.store_internal(&record, Some(data))
    }

    /// Retrieve the full contents of a file previously stored with
    /// [`PeerStripe::store_data`], decoding chunks from whatever blocks survive.
    pub fn retrieve_data(&self, name: &str) -> Option<Vec<u8>> {
        let size = self.manifest(name)?.size;
        self.retrieve_range_data(name, 0, size.as_u64())
    }

    /// Retrieve a byte range `[offset, offset + len)` of a stored file.
    ///
    /// Only the chunks overlapping the range are touched (Section 4.1: partial
    /// access retrieves only the chunks containing the requested portion).
    pub fn retrieve_range_data(&self, name: &str, offset: u64, len: u64) -> Option<Vec<u8>> {
        let manifest = self.manifest(name)?;
        if len == 0 {
            return Some(Vec::new());
        }
        let end = offset.checked_add(len)?.min(manifest.size.as_u64());
        if offset >= manifest.size.as_u64() {
            return Some(Vec::new());
        }
        let codec = self.config.coding.codec(self.config.data_path_blocks);
        let mut out = Vec::with_capacity((end - offset) as usize);
        let mut chunk_start: u64 = 0;
        for chunk in &manifest.chunks {
            let chunk_end = chunk_start + chunk.size.as_u64();
            if chunk.size.is_zero() {
                continue;
            }
            if chunk_end > offset && chunk_start < end {
                let encoded = self.fetch_codec_blocks(chunk).unwrap_or_default();
                let chunk_bytes = codec.decode(&encoded, chunk.size.as_u64() as usize).ok()?;
                let lo = offset.saturating_sub(chunk_start) as usize;
                let hi = (end - chunk_start).min(chunk.size.as_u64()) as usize;
                out.extend_from_slice(&chunk_bytes[lo..hi]);
            }
            chunk_start = chunk_end;
        }
        Some(out)
    }

    /// Fetch every placed block of `chunk` in one batch and unpack the codec
    /// blocks they carry.  `None` when no fetched block carries a payload:
    /// the metadata-only path, or every holder is gone.
    fn fetch_codec_blocks(&self, chunk: &ChunkPlacement) -> Option<Vec<EncodedBlock>> {
        let reqs: Vec<(NodeRef, &ObjectName)> =
            chunk.blocks.iter().map(|b| (b.node, &b.name)).collect();
        let payloads: Vec<Vec<u8>> = self
            .backend
            .fetch_blocks(&reqs)
            .into_iter()
            .filter_map(|obj| obj?.payload)
            .collect();
        if payloads.is_empty() {
            return None;
        }
        Some(payloads.iter().flat_map(|p| unpack_payload(p)).collect())
    }

    /// The replacement blocks for the placed blocks of `chunk` whose sizes
    /// are `lost`, as `(size, payload)` pairs.
    ///
    /// On the metadata-only path that is one size-only block per lost block.
    /// On the byte path the survivors are fetched once and decoded once, and
    /// the codec blocks no live node holds any more are split over the lost
    /// placed blocks the way [`distribute_payloads`] splits them at store
    /// time; a share left without codec blocks is not placed at all.
    /// Returns `None` when the survivors cannot be decoded.
    fn rebuild_lost_blocks(
        &self,
        chunk: &ChunkPlacement,
        lost: &[ByteSize],
    ) -> Option<Vec<(ByteSize, Option<Vec<u8>>)>> {
        let Some(have) = self.fetch_codec_blocks(chunk) else {
            return Some(lost.iter().map(|&size| (size, None)).collect());
        };
        let codec = self.config.coding.codec(self.config.data_path_blocks);
        let present: std::collections::BTreeSet<u32> = have.iter().map(|b| b.index).collect();
        let missing: Vec<u32> = (0..codec.encoded_blocks() as u32)
            .filter(|i| !present.contains(i))
            .collect();
        let rebuilt = codec
            .reencode(&have, chunk.size.as_u64() as usize, &missing)
            .ok()?;
        Some(
            group_codec_blocks(&self.config.coding, rebuilt, lost.len())
                .into_iter()
                .filter(|group| !group.is_empty())
                .map(|group| {
                    let payload = pack_payload(&group);
                    (ByteSize::bytes(payload.len() as u64), Some(payload))
                })
                .collect(),
        )
    }

    /// Handle the failure of a node: regenerate the encoded blocks it held from
    /// the surviving blocks of each affected chunk (Section 4.4).
    ///
    /// Regenerated blocks get a fresh ECB number (the paper notes the recreated
    /// block "may not be exactly the same … but it is functionally equal") and
    /// are placed on the takeover inheritor, falling back to normal DHT placement
    /// when the inheritor has no space ("drop and recreate elsewhere").  Each
    /// affected chunk is rebuilt once, however many of its blocks were lost.
    pub fn handle_node_failure(&mut self, failed: NodeRef, takeover: &Takeover) -> RecoveryReport {
        let mut report = RecoveryReport::default();
        // (file, chunk, sizes of the chunk's placed blocks on the failed node)
        let mut regenerations: Vec<(String, u32, Vec<ByteSize>)> = Vec::new();
        let mut cat_repairs: Vec<String> = Vec::new();

        for manifest in self.manifests.iter() {
            if manifest.cat_nodes.contains(&failed) {
                cat_repairs.push(manifest.name.clone());
            }
            for chunk in &manifest.chunks {
                let lost: Vec<ByteSize> = chunk.blocks_on(failed).map(|b| b.size).collect();
                if lost.is_empty() {
                    continue;
                }
                if chunk.is_recoverable(&self.backend) {
                    regenerations.push((manifest.name.clone(), chunk.chunk, lost));
                } else {
                    report.chunks_lost += 1;
                    report.bytes_lost += chunk.size;
                }
            }
        }

        for (file, chunk_no, lost) in regenerations {
            let Some(chunk) = self.chunk(&file, chunk_no) else {
                continue;
            };
            // Undecodable survivors leave the chunk as it is for a later pass.
            let Some(rebuilt) = self.rebuild_lost_blocks(chunk, &lost) else {
                continue;
            };
            for (size, payload) in rebuilt {
                if self.place_rebuilt_block(&file, chunk_no, failed, takeover, size, payload) {
                    report.blocks_regenerated += 1;
                    report.bytes_regenerated += size;
                }
            }
        }

        for file in cat_repairs {
            let replicas = self.config.cat_replicas.max(1);
            let cat_key = ObjectName::cat(&file).key();
            let candidates = self.backend.replica_targets(cat_key, replicas + 1);
            if let Some(m) = self.manifests.get_mut(&file) {
                m.cat_nodes.retain(|n| *n != failed);
                for (_, node) in candidates {
                    if !m.cat_nodes.contains(&node) {
                        m.cat_nodes.push(node);
                        report.cats_replicated += 1;
                        break;
                    }
                }
            }
        }
        report
    }

    /// One chunk of a tracked file.
    fn chunk(&self, file: &str, chunk_no: u32) -> Option<&ChunkPlacement> {
        self.manifests
            .get(file)?
            .chunks
            .iter()
            .find(|c| c.chunk == chunk_no)
    }

    /// One chunk of a tracked file, mutably.
    fn chunk_mut(&mut self, file: &str, chunk_no: u32) -> Option<&mut ChunkPlacement> {
        self.manifests
            .get_mut(file)?
            .chunks
            .iter_mut()
            .find(|c| c.chunk == chunk_no)
    }

    /// Place one rebuilt block of `chunk_no` on a live node that holds no
    /// other block of the chunk, and record it in the manifest in place of
    /// the failed node's blocks.  Returns whether the block was stored.
    fn place_rebuilt_block(
        &mut self,
        file: &str,
        chunk_no: u32,
        failed: NodeRef,
        takeover: &Takeover,
        size: ByteSize,
        payload: Option<Vec<u8>>,
    ) -> bool {
        let Some(chunk) = self.chunk(file, chunk_no) else {
            return false;
        };
        let next_ecb = chunk
            .blocks
            .iter()
            .map(|b| match &b.name {
                ObjectName::Block { ecb, .. } => *ecb + 1,
                _ => 1,
            })
            .max()
            .unwrap_or(0)
            .max(self.config.coding.placed_blocks() as u32);
        // A rebuilt block must never collocate with a live block of its own
        // chunk — landing on an existing holder would silently shrink the
        // chunk's failure tolerance.
        let holders: Vec<NodeRef> = chunk
            .blocks
            .iter()
            .map(|b| b.node)
            .filter(|&n| self.backend.is_alive(n))
            .collect();
        let name = ObjectName::block(file, chunk_no, next_ecb);
        // Prefer the inheritor of the failed key space; fall back to the
        // placement strategy (which applies the same exclusion, plus any
        // domain constraints).
        let inheritor = takeover.inheritor_of(name.key()).1;
        let target = if self.backend.can_store(inheritor, size)
            && self.backend.is_alive(inheritor)
            && !holders.contains(&inheritor)
        {
            Some(inheritor)
        } else {
            let mut rng = DetRng::new(name.key().seed());
            let request = RepairRequest {
                want: 1,
                size,
                holders: &holders,
                domain_cap: self.domain_cap(),
            };
            self.placement
                .repair_targets(&self.backend, self.topology.as_ref(), &request, &mut rng)
                .into_iter()
                .next()
        };
        let Some(node) = target else {
            return false;
        };
        if self
            .backend
            .store_block(node, name.key(), name.clone(), size, payload)
            .is_err()
        {
            return false;
        }
        let domain = self.domain_of(node);
        if let Some(c) = self.chunk_mut(file, chunk_no) {
            c.blocks.push(BlockPlacement {
                name,
                node,
                size,
                domain,
            });
            c.blocks.retain(|b| b.node != failed);
        }
        true
    }

    /// Reconstruct a file's CAT by probing chunk objects in order (Section 4.4:
    /// the CAT "can be re-created … by incrementally looking up chunks of a file
    /// and determining their size"), stopping after the configured number of
    /// consecutive misses.
    pub fn reconstruct_cat(&mut self, file: &str) -> ChunkAllocationTable {
        let mut sizes = Vec::new();
        let mut consecutive_missing = 0u32;
        let mut chunk_no = 0u32;
        while consecutive_missing <= self.config.zero_chunk_limit {
            let name = self.block_name(file, chunk_no, 0);
            let found = self
                .backend
                .route_lookup(name.key())
                .and_then(|node| self.backend.fetch_block(node, &name).map(|o| o.size));
            // With coding, the probed block holds only one of the chunk's placed
            // blocks; scale back up to the chunk's data size.
            match found {
                Some(block_size) => {
                    let chunk_size = if matches!(self.config.coding, CodingPolicy::None) {
                        block_size
                    } else {
                        ByteSize::bytes(
                            (block_size.as_u64() as f64 * self.config.coding.placed_blocks() as f64
                                / self.config.coding.storage_overhead())
                            .round() as u64,
                        )
                    };
                    sizes.push(chunk_size);
                    consecutive_missing = 0;
                }
                None => {
                    sizes.push(ByteSize::ZERO);
                    consecutive_missing += 1;
                }
            }
            chunk_no += 1;
        }
        // Trim the trailing run of misses that terminated the probe.
        while sizes.last().is_some_and(|s| s.is_zero()) {
            sizes.pop();
        }
        ChunkAllocationTable::from_chunk_sizes(&sizes)
    }
}

/// Pack a codec's encoded blocks into `targets` payload groups (one per placed
/// block object), preserving block indices for decoding.
///
/// The assignment preserves the placement policy's failure tolerance: for the
/// XOR policy each parity group's members land on distinct targets (so losing
/// one target loses at most one block per group); other policies distribute
/// round-robin.
fn distribute_payloads(
    policy: &CodingPolicy,
    blocks: Vec<EncodedBlock>,
    targets: usize,
) -> Vec<Vec<u8>> {
    group_codec_blocks(policy, blocks, targets)
        .iter()
        .map(|g| pack_payload(g))
        .collect()
}

/// The grouping behind [`distribute_payloads`], before packing: which codec
/// blocks each of `targets` placed blocks carries.
fn group_codec_blocks(
    policy: &CodingPolicy,
    blocks: Vec<EncodedBlock>,
    targets: usize,
) -> Vec<Vec<EncodedBlock>> {
    let mut groups: Vec<Vec<EncodedBlock>> = vec![Vec::new(); targets];
    match *policy {
        CodingPolicy::Xor { group } if targets == group + 1 => {
            // The codec numbers data blocks 0..n and parity blocks n..; route data
            // block i to target i % group and every parity block to the last target.
            let n = blocks.len() * group / (group + 1);
            for b in blocks {
                let idx = b.index as usize;
                let target = if idx < n { idx % group } else { group };
                groups[target].push(b);
            }
        }
        _ => {
            for (i, b) in blocks.into_iter().enumerate() {
                groups[i % targets].push(b); // lint:allow(slice-index) -- i % targets < targets == groups.len() by construction
            }
        }
    }
    groups
}

/// Serialise a group of encoded blocks into one payload: `[count][index, len, bytes]*`.
///
/// This is the on-node payload format of every block object PeerStripe places;
/// it is public so maintenance tooling (the `peerstripe-repair` regeneration
/// executors) can rebuild block payloads outside the client.
pub fn pack_payload(blocks: &[EncodedBlock]) -> Vec<u8> {
    let mut out = Vec::new();
    out.extend_from_slice(&(blocks.len() as u32).to_le_bytes());
    for b in blocks {
        out.extend_from_slice(&b.index.to_le_bytes());
        out.extend_from_slice(&(b.data.len() as u32).to_le_bytes());
        out.extend_from_slice(&b.data);
    }
    out
}

/// Inverse of [`pack_payload`].
pub fn unpack_payload(payload: &[u8]) -> Vec<EncodedBlock> {
    let mut out = Vec::new();
    if payload.len() < 4 {
        return out;
    }
    let count = u32::from_le_bytes(payload[0..4].try_into().unwrap()) as usize; // lint:allow(panic) -- 4-byte window guarded by the len()<4 check above
    let mut pos = 4;
    for _ in 0..count {
        if pos + 8 > payload.len() {
            break;
        }
        let index = u32::from_le_bytes(payload[pos..pos + 4].try_into().unwrap()); // lint:allow(panic) -- 4-byte window guarded by the pos+8<=len check above
        let len = u32::from_le_bytes(payload[pos + 4..pos + 8].try_into().unwrap()) as usize; // lint:allow(panic) -- 4-byte window guarded by the pos+8<=len check above
        pos += 8;
        if pos + len > payload.len() {
            break;
        }
        out.push(EncodedBlock::new(index, payload[pos..pos + len].to_vec()));
        pos += len;
    }
    out
}

impl PeerStripe<StorageCluster> {
    /// Consume the system and return its cluster (for re-use between phases).
    pub fn into_cluster(self) -> StorageCluster {
        self.backend
    }
}

impl StorageSystem for PeerStripe<StorageCluster> {
    fn name(&self) -> &str {
        "Our System"
    }

    fn store_file(&mut self, file: &FileRecord) -> StoreOutcome {
        self.store_internal(file, None)
    }

    fn metrics(&self) -> &StoreMetrics {
        &self.metrics
    }

    fn cluster(&self) -> &StorageCluster {
        &self.backend
    }

    fn cluster_mut(&mut self) -> &mut StorageCluster {
        &mut self.backend
    }

    fn manifest(&self, name: &str) -> Option<&FileManifest> {
        self.manifests.get(name)
    }

    fn manifests(&self) -> &ManifestStore {
        &self.manifests
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::ClusterConfig;
    use peerstripe_sim::DetRng;
    use peerstripe_trace::CapacityModel;

    fn cluster(nodes: usize, capacity: ByteSize, seed: u64) -> StorageCluster {
        let mut rng = DetRng::new(seed);
        ClusterConfig {
            nodes,
            capacity: CapacityModel::Fixed(capacity),
            report_fraction: 1.0,
            track_objects: true,
        }
        .build(&mut rng)
    }

    fn system(nodes: usize, capacity: ByteSize, seed: u64) -> PeerStripe {
        PeerStripe::new(cluster(nodes, capacity, seed), PeerStripeConfig::default())
    }

    #[test]
    fn stores_files_larger_than_any_single_node() {
        // 50 nodes × 1 GB each; a 10 GB file cannot fit on any one node but fits
        // in the aggregate — the headline capability of the paper.
        let mut ps = system(50, ByteSize::gb(1), 1);
        let file = FileRecord::new("huge-dataset", ByteSize::gb(10));
        assert!(ps.store_file(&file).is_stored());
        let manifest = ps.manifest("huge-dataset").unwrap();
        assert!(manifest.chunks.iter().filter(|c| !c.size.is_zero()).count() >= 10);
        let total: ByteSize = manifest.chunks.iter().map(|c| c.size).sum();
        assert_eq!(total, ByteSize::gb(10));
        assert!(ps.is_file_available("huge-dataset"));
        assert_eq!(ps.metrics().files_failed, 0);
    }

    #[test]
    fn chunk_sizes_follow_reported_capacity() {
        let mut ps = system(20, ByteSize::mb(500), 2);
        let file = FileRecord::new("data", ByteSize::gb(2));
        assert!(ps.store_file(&file).is_stored());
        let manifest = ps.manifest("data").unwrap();
        for c in &manifest.chunks {
            assert!(
                c.size <= ByteSize::mb(500),
                "chunk {} exceeds node capacity",
                c.chunk
            );
        }
    }

    #[test]
    fn store_fails_when_system_is_full() {
        // 4 nodes × 100 MB: a 1 GB file can never fit, so its store must fail —
        // and must not leak partially placed chunks.
        let mut ps = system(4, ByteSize::mb(100), 3);
        let used_before = ps.cluster().total_used();
        let outcome = ps.store_file(&FileRecord::new("b", ByteSize::gb(1)));
        assert!(!outcome.is_stored());
        assert_eq!(ps.metrics().files_failed, 1);
        assert!(ps.metrics().failed_store_pct() > 0.0);
        assert!(ps.manifest("b").is_none());
        assert_eq!(
            ps.cluster().total_used(),
            used_before,
            "rollback must free partial chunks"
        );
    }

    #[test]
    fn zero_chunk_limit_bounds_retries() {
        let mut ps = PeerStripe::new(
            cluster(4, ByteSize::mb(10), 4),
            PeerStripeConfig {
                zero_chunk_limit: 2,
                ..PeerStripeConfig::default()
            },
        );
        let outcome = ps.store_file(&FileRecord::new("big", ByteSize::gb(1)));
        match outcome {
            StoreOutcome::Failed { reason } => assert!(reason.contains("zero-sized")),
            StoreOutcome::Stored => panic!("store should have failed"),
        }
    }

    #[test]
    fn cat_is_replicated() {
        let mut ps = system(30, ByteSize::gb(1), 5);
        assert!(ps
            .store_file(&FileRecord::new("f", ByteSize::mb(100)))
            .is_stored());
        let manifest = ps.manifest("f").unwrap();
        assert_eq!(manifest.cat_nodes.len(), ps.config().cat_replicas);
        let unique: std::collections::HashSet<_> = manifest.cat_nodes.iter().collect();
        assert_eq!(
            unique.len(),
            manifest.cat_nodes.len(),
            "replicas on distinct nodes"
        );
    }

    #[test]
    fn erasure_coding_places_multiple_blocks_per_chunk() {
        let mut ps = PeerStripe::new(
            cluster(40, ByteSize::gb(1), 6),
            PeerStripeConfig::default().with_coding(CodingPolicy::xor_2_3()),
        );
        assert!(ps
            .store_file(&FileRecord::new("img", ByteSize::mb(600)))
            .is_stored());
        let manifest = ps.manifest("img").unwrap();
        for chunk in manifest.chunks.iter().filter(|c| !c.size.is_zero()) {
            assert_eq!(chunk.blocks.len(), 3);
            assert_eq!(chunk.min_blocks_needed, 2);
        }
        // Redundancy inflates placed bytes by ~50%.
        let placed = ps.metrics().bytes_placed.as_u64() as f64;
        let stored = ps.metrics().bytes_stored.as_u64() as f64;
        assert!(placed / stored > 1.4, "placed/stored = {}", placed / stored);
    }

    #[test]
    fn availability_degrades_only_past_coding_tolerance() {
        let mut ps = PeerStripe::new(
            cluster(60, ByteSize::gb(1), 7),
            PeerStripeConfig::default().with_coding(CodingPolicy::xor_2_3()),
        );
        assert!(ps
            .store_file(&FileRecord::new("f", ByteSize::mb(400)))
            .is_stored());
        // Fail one node holding a block of some chunk: file must stay available.
        let victim = ps.manifest("f").unwrap().chunks[0].blocks[0].node;
        let takeover = ps.cluster_mut().fail_node(victim).unwrap();
        assert!(ps.is_file_available("f"));
        // Regenerate, then fail another block of the same chunk: still available.
        let report = ps.handle_node_failure(victim, &takeover);
        assert!(report.blocks_regenerated > 0);
        assert_eq!(report.chunks_lost, 0);
    }

    #[test]
    fn recovery_regenerates_lost_blocks_elsewhere() {
        let mut ps = PeerStripe::new(
            cluster(30, ByteSize::gb(1), 8),
            PeerStripeConfig::default().with_coding(CodingPolicy::online_default()),
        );
        assert!(ps
            .store_file(&FileRecord::new("d", ByteSize::mb(300)))
            .is_stored());
        let victim = ps.manifest("d").unwrap().chunks[0].blocks[0].node;
        let lost_blocks: usize = ps
            .manifest("d")
            .unwrap()
            .chunks
            .iter()
            .map(|c| c.blocks_on(victim).count())
            .sum();
        let takeover = ps.cluster_mut().fail_node(victim).unwrap();
        let report = ps.handle_node_failure(victim, &takeover);
        assert_eq!(report.blocks_regenerated as usize, lost_blocks);
        // After recovery no manifest block references the failed node.
        assert!(ps
            .manifest("d")
            .unwrap()
            .all_blocks()
            .all(|b| b.node != victim));
        assert!(ps.is_file_available("d"));
    }

    #[test]
    fn byte_path_round_trips_data() {
        let mut ps = system(25, ByteSize::mb(200), 9);
        let mut rng = DetRng::new(99);
        let data: Vec<u8> = (0..600_000).map(|_| rng.next_u32() as u8).collect();
        assert!(ps.store_data("blob", &data).is_stored());
        assert_eq!(ps.retrieve_data("blob").unwrap(), data);
        // Range read.
        assert_eq!(
            ps.retrieve_range_data("blob", 1000, 5000).unwrap(),
            data[1000..6000].to_vec()
        );
        // Reads past the end clamp.
        assert_eq!(
            ps.retrieve_range_data("blob", 599_000, 10_000).unwrap(),
            data[599_000..].to_vec()
        );
        assert_eq!(
            ps.retrieve_range_data("blob", 0, 0).unwrap(),
            Vec::<u8>::new()
        );
        assert!(ps.retrieve_data("missing").is_none());
    }

    #[test]
    fn byte_path_survives_tolerable_failures_with_coding() {
        let mut ps = PeerStripe::new(
            cluster(40, ByteSize::mb(200), 10),
            PeerStripeConfig::default().with_coding(CodingPolicy::xor_2_3()),
        );
        let mut rng = DetRng::new(5);
        let data: Vec<u8> = (0..200_000).map(|_| rng.next_u32() as u8).collect();
        assert!(ps.store_data("img", &data).is_stored());
        // Fail one block-holding node per chunk's tolerance.
        let victim = ps.manifest("img").unwrap().chunks[0].blocks[2].node;
        ps.cluster_mut().fail_node(victim);
        assert_eq!(ps.retrieve_data("img").unwrap(), data);
    }

    #[test]
    fn byte_path_round_trips_and_recovers_with_reed_solomon() {
        let mut ps = PeerStripe::new(
            cluster(40, ByteSize::mb(200), 21),
            PeerStripeConfig::default().with_coding(CodingPolicy::rs_default()),
        );
        let mut rng = DetRng::new(6);
        let data: Vec<u8> = (0..300_000).map(|_| rng.next_u32() as u8).collect();
        assert!(ps.store_data("volume", &data).is_stored());
        // Every chunk is placed as 6 block objects of which any 4 suffice.
        for chunk in ps.manifest("volume").unwrap().chunks.iter() {
            assert_eq!(chunk.blocks.len(), 6);
            assert_eq!(chunk.min_blocks_needed, 4);
        }
        // Fail a block-holding node: the payload reads back bit-for-bit and
        // recovery regenerates exactly the lost blocks.
        let victim = ps.manifest("volume").unwrap().chunks[0].blocks[0].node;
        let lost: usize = ps
            .manifest("volume")
            .unwrap()
            .chunks
            .iter()
            .map(|c| c.blocks_on(victim).count())
            .sum();
        let takeover = ps.cluster_mut().fail_node(victim).unwrap();
        assert_eq!(ps.retrieve_data("volume").unwrap(), data);
        let report = ps.handle_node_failure(victim, &takeover);
        assert_eq!(report.blocks_regenerated as usize, lost);
        assert_eq!(report.chunks_lost, 0);
        assert_eq!(ps.retrieve_data("volume").unwrap(), data);
        assert!(ps.is_file_available("volume"));
    }

    #[test]
    fn cat_reconstruction_matches_original() {
        let mut ps = system(30, ByteSize::mb(300), 11);
        assert!(ps
            .store_file(&FileRecord::new("rebuild-me", ByteSize::gb(1)))
            .is_stored());
        let original: Vec<ByteSize> = ps
            .manifest("rebuild-me")
            .unwrap()
            .chunks
            .iter()
            .map(|c| c.size)
            .collect();
        let rebuilt = ps.reconstruct_cat("rebuild-me");
        let rebuilt_sizes: Vec<ByteSize> = rebuilt.extents().iter().map(|e| e.size()).collect();
        // Trailing zero chunks are trimmed by reconstruction; compare the data prefix.
        let original_trimmed: Vec<ByteSize> = {
            let mut v = original.clone();
            while v.last().is_some_and(|s| s.is_zero()) {
                v.pop();
            }
            v
        };
        assert_eq!(rebuilt_sizes, original_trimmed);
    }

    #[test]
    fn empty_file_stores_trivially() {
        let mut ps = system(10, ByteSize::mb(100), 12);
        assert!(ps
            .store_file(&FileRecord::new("empty", ByteSize::ZERO))
            .is_stored());
        assert!(ps.is_file_available("empty"));
        assert_eq!(ps.manifest("empty").unwrap().chunks.len(), 0);
    }

    #[test]
    fn domain_spread_respects_the_cap_and_records_domains() {
        use peerstripe_placement::{DomainSpread, SpreadReport, Topology};
        let topo = Topology::uniform_groups(40, 5);
        let mut ps = PeerStripe::with_placement(
            cluster(40, ByteSize::gb(1), 14),
            PeerStripeConfig::default().with_coding(CodingPolicy::rs_default()),
            Box::new(DomainSpread::new()),
            Some(topo.clone()),
        );
        assert_eq!(ps.placement_name(), "domain-spread");
        assert_eq!(ps.domain_cap(), 2, "RS(4, 6) tolerates two losses");
        for i in 0..8 {
            assert!(ps
                .store_file(&FileRecord::new(format!("f{i}"), ByteSize::mb(300)))
                .is_stored());
        }
        let mut spread = SpreadReport::new(ps.domain_cap());
        for i in 0..8 {
            let manifest = ps.manifest(&format!("f{i}")).unwrap();
            for chunk in manifest.chunks.iter().filter(|c| !c.size.is_zero()) {
                for b in &chunk.blocks {
                    assert_eq!(b.domain, topo.domain_of(b.node), "recorded domain");
                }
                spread.record_chunk(chunk.blocks.iter().map(|b| b.domain));
            }
        }
        assert_eq!(spread.cap_violations, 0, "no chunk exceeds the domain cap");
        assert!(spread.max_in_one_domain <= 2);
        assert!(spread.mean_distinct_domains() >= 3.0, "6 blocks, cap 2");
    }

    #[test]
    fn oblivious_placement_leaves_domains_unrecorded() {
        let mut ps = system(30, ByteSize::gb(1), 15);
        assert!(ps
            .store_file(&FileRecord::new("f", ByteSize::mb(200)))
            .is_stored());
        assert_eq!(ps.domain_cap(), usize::MAX);
        assert!(ps
            .manifest("f")
            .unwrap()
            .all_blocks()
            .all(|b| b.domain.is_none()));
    }

    #[test]
    fn rebuilt_blocks_never_collocate_with_live_blocks_of_their_chunk() {
        let mut ps = PeerStripe::new(
            cluster(30, ByteSize::gb(1), 16),
            PeerStripeConfig::default().with_coding(CodingPolicy::rs_default()),
        );
        assert!(ps
            .store_file(&FileRecord::new("d", ByteSize::mb(400)))
            .is_stored());
        // Chunks whose blocks start on distinct nodes must stay collocation-free
        // through repeated failure/recovery rounds.
        let distinct = |c: &ChunkPlacement, cluster: &StorageCluster| {
            let nodes: Vec<NodeRef> = c
                .blocks
                .iter()
                .map(|b| b.node)
                .filter(|&n| cluster.overlay().is_alive(n))
                .collect();
            let unique: std::collections::HashSet<_> = nodes.iter().collect();
            unique.len() == nodes.len()
        };
        let clean_before: Vec<u32> = ps
            .manifest("d")
            .unwrap()
            .chunks
            .iter()
            .filter(|c| distinct(c, ps.cluster()))
            .map(|c| c.chunk)
            .collect();
        assert!(!clean_before.is_empty());
        for round in 0..3 {
            let victim = ps.manifest("d").unwrap().chunks[0].blocks[round].node;
            let takeover = ps.cluster_mut().fail_node(victim).unwrap();
            ps.handle_node_failure(victim, &takeover);
        }
        let manifest = ps.manifest("d").unwrap();
        for chunk in &manifest.chunks {
            if clean_before.contains(&chunk.chunk) {
                assert!(
                    distinct(chunk, ps.cluster()),
                    "chunk {} gained a collocated rebuilt block: {:?}",
                    chunk.chunk,
                    chunk.blocks.iter().map(|b| b.node).collect::<Vec<_>>()
                );
            }
        }
        assert!(ps.is_file_available("d"));
    }

    #[test]
    fn repair_rebuilds_a_chunk_once_however_many_of_its_blocks_were_lost() {
        // Eight nodes and RS(5, 3) over five source blocks: eight placed
        // blocks of one codec block each, so a node can hold two blocks of the
        // chunk.  On this seed the victim does, and the survivors leave two
        // non-holders to rebuild on.
        let mut ps = PeerStripe::new(
            cluster(8, ByteSize::gb(1), 10),
            PeerStripeConfig {
                data_path_blocks: 5,
                ..PeerStripeConfig::default()
                    .with_coding(CodingPolicy::ReedSolomon { data: 5, parity: 3 })
            },
        );
        let data: Vec<u8> = (0..262_144u32).map(|i| (i * 7 + 3) as u8).collect();
        assert!(ps.store_data("f", &data).is_stored());
        let chunk = ps.manifest("f").unwrap().chunks[0].clone();
        let victim = (0..8)
            .find(|&n| chunk.blocks_on(n).count() == 2)
            .expect("a node holding two blocks of the chunk");
        let lost_bytes: ByteSize = chunk.blocks_on(victim).map(|b| b.size).sum();
        let takeover = ps.cluster_mut().fail_node(victim).unwrap();
        let report = ps.handle_node_failure(victim, &takeover);

        assert_eq!(report.blocks_regenerated, 2);
        assert_eq!(report.bytes_regenerated, lost_bytes);
        let repaired = &ps.manifest("f").unwrap().chunks[0];
        assert_eq!(repaired.blocks.len(), 8);
        assert!(repaired.blocks.iter().all(|b| b.node != victim));
        for b in &repaired.blocks {
            let obj = ps.cluster().fetch_from(b.node, &b.name).unwrap();
            let codec_blocks = unpack_payload(obj.payload.as_deref().unwrap());
            assert_eq!(codec_blocks.len(), 1, "{} carries one codec block", b.name);
        }
        // The rebuilt blocks sit on two distinct nodes that held no survivor.
        let survivors: Vec<NodeRef> = chunk
            .blocks
            .iter()
            .map(|b| b.node)
            .filter(|&n| n != victim)
            .collect();
        let rebuilt: Vec<NodeRef> = repaired.blocks[6..].iter().map(|b| b.node).collect();
        assert_ne!(rebuilt[0], rebuilt[1]);
        assert!(rebuilt.iter().all(|n| !survivors.contains(n)));
        assert_eq!(ps.retrieve_data("f").unwrap(), data);
    }

    #[test]
    fn metrics_track_chunk_distribution() {
        let mut ps = system(50, ByteSize::gb(1), 13);
        for i in 0..20 {
            ps.store_file(&FileRecord::new(format!("f{i}"), ByteSize::mb(250)));
        }
        let m = ps.metrics();
        assert_eq!(m.files_attempted, 20);
        assert!(m.mean_chunks_per_file() >= 1.0);
        assert!(m.mean_chunk_size() > ByteSize::ZERO);
    }
}
