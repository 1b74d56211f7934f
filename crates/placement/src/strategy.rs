//! Placement strategies: who gets the next block.
//!
//! The client's store path and every repair re-placement path route their
//! target selection through a [`PlacementStrategy`]:
//!
//! * [`OverlayRandom`] — the classic DHT behaviour (and the paper's): each
//!   block's name hashes to a key, the key routes to the numerically closest
//!   live node, and a `getCapacity` probe sizes the chunk.  Oblivious to
//!   failure domains.
//! * [`DomainSpread`] — failure-domain-aware, PAST-style replica diversity:
//!   the routed candidate is accepted only while its domain stays under the
//!   chunk's per-domain block cap; otherwise the strategy round-robins across
//!   the under-used domains, capacity-aware (the fullest domains are skipped,
//!   the freest node of the least-used domain wins).  With the cap set to the
//!   coding policy's tolerable losses, losing any single domain can never make
//!   a chunk unrecoverable.
//! * [`CapacityWeighted`] — targets drawn with probability proportional to
//!   reported free space, trading placement balance for domain obliviousness.
//!
//! Strategies see the cluster through the [`ClusterView`] / [`ProbeView`]
//! traits (implemented by `peerstripe_core::StorageCluster`), so this crate
//! stays below `core` in the dependency order.

use crate::topology::Topology;
use peerstripe_overlay::{Id, NodeRef};
use peerstripe_sim::{ByteSize, DetRng};

/// Read-only view of the cluster a placement strategy consults.
pub trait ClusterView {
    /// Route a key to the live node numerically closest to it, without
    /// charging protocol traffic.
    fn route_quiet(&self, key: Id) -> Option<NodeRef>;
    /// True if the node is currently live.
    fn is_alive(&self, node: NodeRef) -> bool;
    /// True if an object of the given size fits on the node right now.
    fn can_store(&self, node: NodeRef, size: ByteSize) -> bool;
    /// The node's current `getCapacity` report (free space it advertises).
    /// Direct per-node reports travel over IP, not the overlay, so they are
    /// not charged as lookups (Section 4.1 of the paper).
    fn report_of(&self, node: NodeRef) -> ByteSize;
    /// Number of nodes (live and failed).
    fn node_count(&self) -> usize;
    /// The currently live nodes.
    fn alive_nodes(&self) -> Vec<NodeRef>;
}

/// A [`ClusterView`] that can also issue routed `getCapacity` probes, which
/// are charged as overlay lookups (the client store path).
pub trait ProbeView: ClusterView {
    /// Route a key and probe the responsible node's capacity (one lookup).
    fn probe(&mut self, key: Id) -> Option<(NodeRef, ByteSize)>;

    /// Probe every key of one chunk: one `(node, report)` per key, in call
    /// order, or `None` if any probe fails.
    ///
    /// The default is the sequential loop over [`ProbeView::probe`], which
    /// stops at the first failure.  A networked view may override it to have
    /// all probes in flight at once; such a view has then already issued the
    /// probes after a failed one when it returns `None`.
    fn probe_all(&mut self, keys: &[Id]) -> Option<Vec<(NodeRef, ByteSize)>> {
        keys.iter().map(|&key| self.probe(key)).collect()
    }
}

/// What a repair re-placement asks of a strategy.
#[derive(Debug, Clone)]
pub struct RepairRequest<'a> {
    /// Number of targets wanted.
    pub want: usize,
    /// Size each target must be able to store.
    pub size: ByteSize,
    /// Nodes already holding (registered) blocks of the chunk: a rebuilt block
    /// must never collocate with a live block of its own chunk.
    pub holders: &'a [NodeRef],
    /// Maximum blocks of this chunk any single failure domain may hold
    /// (`usize::MAX` disables the constraint).
    pub domain_cap: usize,
}

/// A pluggable target-selection policy for chunk placement and repair.
pub trait PlacementStrategy {
    /// Short name used in sweep tables.
    fn name(&self) -> &'static str;

    /// Choose one target per block key for a fresh chunk, returning each
    /// target with its capacity report (the minimum report sizes the chunk).
    /// `None` means the chunk cannot be placed under the strategy's
    /// constraints right now — a loud failure the caller surfaces as a
    /// zero-sized chunk retry, never a silently violated constraint.
    fn plan_chunk(
        &mut self,
        view: &mut dyn ProbeView,
        topology: Option<&Topology>,
        keys: &[Id],
        domain_cap: usize,
    ) -> Option<Vec<(NodeRef, ByteSize)>>;

    /// Choose up to `request.want` targets for rebuilt blocks of an existing
    /// chunk, excluding current holders and domains at their block cap.
    fn repair_targets(
        &mut self,
        view: &dyn ClusterView,
        topology: Option<&Topology>,
        request: &RepairRequest<'_>,
        rng: &mut DetRng,
    ) -> Vec<NodeRef>;
}

/// Today's oblivious behaviour, extracted: route every block key through the
/// overlay and take whatever live node answers.
///
/// A chunk's keys are probed as one [`ProbeView::probe_all`] batch, answered
/// in key order, so a networked view has all of them in flight at once.
#[derive(Debug, Clone, Copy, Default)]
pub struct OverlayRandom;

impl OverlayRandom {
    /// Create the strategy.
    pub fn new() -> Self {
        OverlayRandom
    }
}

impl PlacementStrategy for OverlayRandom {
    fn name(&self) -> &'static str {
        "overlay-random"
    }

    fn plan_chunk(
        &mut self,
        view: &mut dyn ProbeView,
        _topology: Option<&Topology>,
        keys: &[Id],
        _domain_cap: usize,
    ) -> Option<Vec<(NodeRef, ByteSize)>> {
        // No key's target depends on another key's answer, so the chunk's
        // probes can go out as one batch.
        view.probe_all(keys)
    }

    fn repair_targets(
        &mut self,
        view: &dyn ClusterView,
        _topology: Option<&Topology>,
        request: &RepairRequest<'_>,
        rng: &mut DetRng,
    ) -> Vec<NodeRef> {
        // Random-key probes to live nodes with space that do not already hold
        // a block of the chunk (keeping the failure independence of the
        // original spread).
        let mut targets: Vec<NodeRef> = Vec::with_capacity(request.want);
        let mut attempts = 0;
        while targets.len() < request.want && attempts < request.want * 8 {
            attempts += 1;
            let Some(candidate) = view.route_quiet(Id::random(rng)) else {
                break;
            };
            if view.can_store(candidate, request.size)
                && !request.holders.contains(&candidate)
                && !targets.contains(&candidate)
            {
                targets.push(candidate);
            }
        }
        targets
    }
}

/// Failure-domain-aware spread: no chunk keeps more than its per-domain cap
/// of blocks in any one domain, with a capacity-aware round-robin fallback
/// when the routed domain is already at its cap (or out of space).
#[derive(Debug, Clone, Copy, Default)]
pub struct DomainSpread;

impl DomainSpread {
    /// Create the strategy.
    pub fn new() -> Self {
        DomainSpread
    }

    /// The best store-path target outside the saturated domains: domains with
    /// the fewest blocks of this chunk first (round-robin), the freest
    /// eligible node within, ties broken by node index for determinism.  The
    /// greedy freest-node pick self-balances here because every placed block
    /// charges its node's capacity immediately.
    fn fallback(
        view: &dyn ClusterView,
        topology: &Topology,
        counts: &[usize],
        chosen: &[NodeRef],
        cap: usize,
    ) -> Option<(NodeRef, ByteSize)> {
        let mut best: Option<(usize, ByteSize, NodeRef)> = None;
        for (d, domain) in topology.domains() {
            let used = counts[d as usize];
            if used >= cap {
                continue;
            }
            for &node in &domain.members {
                if !view.is_alive(node) || chosen.contains(&node) {
                    continue;
                }
                let report = view.report_of(node);
                if report.is_zero() {
                    continue;
                }
                let better = match best {
                    None => true,
                    Some((bu, br, _)) => used < bu || (used == bu && report > br),
                };
                if better {
                    best = Some((used, report, node));
                }
            }
        }
        best.map(|(_, report, node)| (node, report))
    }

    /// One repair-path target: a uniformly random eligible node of the
    /// least-used domains.  Random within the domain tier — unlike the store
    /// path, repair reservations only charge capacity at transfer completion,
    /// so a deterministic freest-node pick would funnel every concurrent
    /// rebuild into one target and serialise repair on its bandwidth pipe.
    fn repair_pick(
        view: &dyn ClusterView,
        topology: &Topology,
        counts: &[usize],
        chosen: &[NodeRef],
        request: &RepairRequest<'_>,
        cap: usize,
        rng: &mut DetRng,
    ) -> Option<NodeRef> {
        let mut best_used = usize::MAX;
        let mut pool: Vec<NodeRef> = Vec::new();
        for (d, domain) in topology.domains() {
            let used = counts[d as usize];
            if used >= cap || used > best_used {
                continue;
            }
            let eligible = domain.members.iter().copied().filter(|&node| {
                view.is_alive(node)
                    && view.can_store(node, request.size)
                    && !request.holders.contains(&node)
                    && !chosen.contains(&node)
            });
            let mut eligible = eligible.peekable();
            if eligible.peek().is_none() {
                continue;
            }
            if used < best_used {
                best_used = used;
                pool.clear();
            }
            pool.extend(eligible);
        }
        rng.choose(&pool).copied()
    }
}

impl PlacementStrategy for DomainSpread {
    fn name(&self) -> &'static str {
        "domain-spread"
    }

    fn plan_chunk(
        &mut self,
        view: &mut dyn ProbeView,
        topology: Option<&Topology>,
        keys: &[Id],
        domain_cap: usize,
    ) -> Option<Vec<(NodeRef, ByteSize)>> {
        // Spreading over domains is impossible without a topology: refuse
        // loudly rather than silently degrade to oblivious placement.
        let topology = topology?;
        let cap = domain_cap.max(1);
        let mut counts = vec![0usize; topology.domain_count()];
        let mut chosen: Vec<NodeRef> = Vec::with_capacity(keys.len());
        let mut out = Vec::with_capacity(keys.len());
        for &key in keys {
            // Prefer the overlay's own answer (it keeps the DHT's lookup
            // semantics and load spread) while it lands in a least-used
            // domain: true round-robin, so a chunk's blocks balance over the
            // domains instead of merely staying under the cap — which keeps
            // chunks recoverable even through *overlapping* domain outages.
            let min_used = counts.iter().copied().min().unwrap_or(0);
            let routed = view.probe(key);
            let pick = match routed {
                Some((node, report))
                    if !report.is_zero()
                        && !chosen.contains(&node)
                        && topology.domain_of(node).is_none_or(|d| {
                            counts[d as usize] <= min_used && counts[d as usize] < cap
                        }) =>
                {
                    (node, report)
                }
                _ => Self::fallback(view, topology, &counts, &chosen, cap)?,
            };
            if let Some(d) = topology.domain_of(pick.0) {
                counts[d as usize] += 1;
            }
            chosen.push(pick.0);
            out.push(pick);
        }
        Some(out)
    }

    fn repair_targets(
        &mut self,
        view: &dyn ClusterView,
        topology: Option<&Topology>,
        request: &RepairRequest<'_>,
        rng: &mut DetRng,
    ) -> Vec<NodeRef> {
        let Some(topology) = topology else {
            // No topology to spread over: degrade to the oblivious behaviour
            // (the collocation exclusion still applies).
            return OverlayRandom.repair_targets(view, None, request, rng);
        };
        let cap = request.domain_cap.max(1);
        let mut counts = vec![0usize; topology.domain_count()];
        for &holder in request.holders {
            if let Some(d) = topology.domain_of(holder) {
                counts[d as usize] += 1;
            }
        }
        let mut targets: Vec<NodeRef> = Vec::with_capacity(request.want);
        while targets.len() < request.want {
            let Some(node) =
                Self::repair_pick(view, topology, &counts, &targets, request, cap, rng)
            else {
                break;
            };
            if let Some(d) = topology.domain_of(node) {
                counts[d as usize] += 1;
            }
            targets.push(node);
        }
        targets
    }
}

/// Targets drawn with probability proportional to reported free space.
#[derive(Debug, Clone)]
pub struct CapacityWeighted {
    rng: DetRng,
}

impl CapacityWeighted {
    /// Create the strategy; `seed` drives the weighted draws of the store path
    /// (repair draws use the caller's stream).
    pub fn new(seed: u64) -> Self {
        CapacityWeighted {
            rng: DetRng::new(seed).fork("capacity-weighted"),
        }
    }

    /// One weighted draw over the eligible nodes.
    #[allow(clippy::too_many_arguments)]
    fn draw(
        view: &dyn ClusterView,
        topology: Option<&Topology>,
        counts: &mut [usize],
        chosen: &[NodeRef],
        exclude: &[NodeRef],
        cap: usize,
        min_size: ByteSize,
        rng: &mut DetRng,
    ) -> Option<(NodeRef, ByteSize)> {
        let mut eligible: Vec<(NodeRef, ByteSize)> = Vec::new();
        let mut total = 0u128;
        for node in view.alive_nodes() {
            if chosen.contains(&node) || exclude.contains(&node) {
                continue;
            }
            if let (Some(t), true) = (topology, cap != usize::MAX) {
                if let Some(d) = t.domain_of(node) {
                    if counts[d as usize] >= cap {
                        continue;
                    }
                }
            }
            let report = view.report_of(node);
            if report.is_zero() || report < min_size {
                continue;
            }
            total += report.as_u64() as u128;
            eligible.push((node, report));
        }
        if eligible.is_empty() {
            return None;
        }
        // Float rounding can push x to (or past) the exact weight sum, so the
        // walk may run off the end; the last eligible node is the fallback,
        // and the domain bookkeeping below covers both outcomes.
        let mut pick = *eligible.last().expect("non-empty"); // lint:allow(panic) -- eligible verified non-empty before the weighted walk
        let mut x = (rng.next_f64() * total as f64) as u128;
        for &(node, report) in &eligible {
            let w = report.as_u64() as u128;
            if x < w {
                pick = (node, report);
                break;
            }
            x -= w;
        }
        if let Some(t) = topology {
            if let Some(d) = t.domain_of(pick.0) {
                counts[d as usize] += 1;
            }
        }
        Some(pick)
    }
}

impl PlacementStrategy for CapacityWeighted {
    fn name(&self) -> &'static str {
        "capacity-weighted"
    }

    fn plan_chunk(
        &mut self,
        view: &mut dyn ProbeView,
        topology: Option<&Topology>,
        keys: &[Id],
        domain_cap: usize,
    ) -> Option<Vec<(NodeRef, ByteSize)>> {
        let mut counts = vec![0usize; topology.map(Topology::domain_count).unwrap_or(0)];
        let mut chosen: Vec<NodeRef> = Vec::with_capacity(keys.len());
        let mut out = Vec::with_capacity(keys.len());
        for _ in keys {
            let (node, report) = Self::draw(
                view,
                topology,
                &mut counts,
                &chosen,
                &[],
                domain_cap,
                ByteSize::ZERO,
                &mut self.rng,
            )?;
            chosen.push(node);
            out.push((node, report));
        }
        Some(out)
    }

    fn repair_targets(
        &mut self,
        view: &dyn ClusterView,
        topology: Option<&Topology>,
        request: &RepairRequest<'_>,
        rng: &mut DetRng,
    ) -> Vec<NodeRef> {
        let mut counts = vec![0usize; topology.map(Topology::domain_count).unwrap_or(0)];
        for &holder in request.holders {
            if let Some(d) = topology.and_then(|t| t.domain_of(holder)) {
                counts[d as usize] += 1;
            }
        }
        let mut targets: Vec<NodeRef> = Vec::with_capacity(request.want);
        while targets.len() < request.want {
            let Some((node, _)) = Self::draw(
                view,
                topology,
                &mut counts,
                &targets,
                request.holders,
                request.domain_cap,
                request.size,
                rng,
            ) else {
                break;
            };
            targets.push(node);
        }
        targets
    }
}

/// The strategies a sweep can instantiate by name.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StrategyKind {
    /// [`OverlayRandom`].
    OverlayRandom,
    /// [`DomainSpread`].
    DomainSpread,
    /// [`CapacityWeighted`].
    CapacityWeighted,
}

impl StrategyKind {
    /// All kinds, in comparison order.
    pub const ALL: [StrategyKind; 3] = [
        StrategyKind::OverlayRandom,
        StrategyKind::DomainSpread,
        StrategyKind::CapacityWeighted,
    ];

    /// The strategy's table label.
    pub fn label(&self) -> &'static str {
        match self {
            StrategyKind::OverlayRandom => "overlay-random",
            StrategyKind::DomainSpread => "domain-spread",
            StrategyKind::CapacityWeighted => "capacity-weighted",
        }
    }

    /// Instantiate the strategy (the seed only matters for draws the strategy
    /// makes on its own stream).
    pub fn build(&self, seed: u64) -> Box<dyn PlacementStrategy> {
        match self {
            StrategyKind::OverlayRandom => Box::new(OverlayRandom::new()),
            StrategyKind::DomainSpread => Box::new(DomainSpread::new()),
            StrategyKind::CapacityWeighted => Box::new(CapacityWeighted::new(seed)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A toy cluster: node i is live unless failed, free space per node, and
    /// routing maps a key to `key % nodes` (live-adjusted by linear probing).
    struct MockView {
        free: Vec<ByteSize>,
        alive: Vec<bool>,
        probes: u64,
    }

    impl MockView {
        fn new(free: Vec<ByteSize>) -> Self {
            let n = free.len();
            MockView {
                free,
                alive: vec![true; n],
                probes: 0,
            }
        }
    }

    impl ClusterView for MockView {
        fn route_quiet(&self, key: Id) -> Option<NodeRef> {
            let n = self.free.len();
            (0..n)
                .map(|i| ((key.0 as usize) + i) % n)
                .find(|&c| self.alive[c])
        }
        fn is_alive(&self, node: NodeRef) -> bool {
            self.alive[node]
        }
        fn can_store(&self, node: NodeRef, size: ByteSize) -> bool {
            size <= self.free[node]
        }
        fn report_of(&self, node: NodeRef) -> ByteSize {
            self.free[node]
        }
        fn node_count(&self) -> usize {
            self.free.len()
        }
        fn alive_nodes(&self) -> Vec<NodeRef> {
            (0..self.free.len()).filter(|&n| self.alive[n]).collect()
        }
    }

    impl ProbeView for MockView {
        fn probe(&mut self, key: Id) -> Option<(NodeRef, ByteSize)> {
            self.probes += 1;
            self.route_quiet(key).map(|n| (n, self.free[n]))
        }
    }

    fn keys(n: usize) -> Vec<Id> {
        (0..n as u128).map(Id).collect()
    }

    #[test]
    fn overlay_random_routes_every_key_and_charges_probes() {
        let mut view = MockView::new(vec![ByteSize::mb(10); 8]);
        let picks = OverlayRandom::new()
            .plan_chunk(&mut view, None, &keys(4), usize::MAX)
            .unwrap();
        assert_eq!(picks.len(), 4);
        assert_eq!(view.probes, 4);
        assert_eq!(
            picks.iter().map(|(n, _)| *n).collect::<Vec<_>>(),
            vec![0, 1, 2, 3],
            "keys route straight through"
        );
    }

    #[test]
    fn overlay_random_repair_excludes_holders() {
        let view = MockView::new(vec![ByteSize::mb(10); 6]);
        let mut rng = DetRng::new(3);
        let holders = vec![0, 1, 2, 3, 4];
        let targets = OverlayRandom::new().repair_targets(
            &view,
            None,
            &RepairRequest {
                want: 1,
                size: ByteSize::mb(1),
                holders: &holders,
                domain_cap: usize::MAX,
            },
            &mut rng,
        );
        assert_eq!(targets, vec![5], "only the non-holder is eligible");
    }

    #[test]
    fn domain_spread_respects_the_cap() {
        // 12 nodes in 4 domains of 3; cap 1: a 4-block chunk must use all four
        // domains even though routing concentrates on low node refs.
        let mut view = MockView::new(vec![ByteSize::mb(10); 12]);
        let topo = Topology::uniform_groups(12, 3);
        let picks = DomainSpread::new()
            .plan_chunk(&mut view, Some(&topo), &keys(4), 1)
            .unwrap();
        let domains: std::collections::HashSet<_> = picks
            .iter()
            .map(|(n, _)| topo.domain_of(*n).unwrap())
            .collect();
        assert_eq!(domains.len(), 4, "one block per domain: {picks:?}");
    }

    #[test]
    fn domain_spread_fails_loudly_when_domains_run_out() {
        // 2 domains, cap 1 → at most 2 blocks placeable; a 3-block chunk must
        // be refused outright, not silently concentrated.
        let mut view = MockView::new(vec![ByteSize::mb(10); 6]);
        let topo = Topology::uniform_groups(6, 3);
        assert!(DomainSpread::new()
            .plan_chunk(&mut view, Some(&topo), &keys(3), 1)
            .is_none());
        // And without a topology it refuses everything.
        assert!(DomainSpread::new()
            .plan_chunk(&mut view, None, &keys(1), 1)
            .is_none());
    }

    #[test]
    fn domain_spread_fallback_is_capacity_aware() {
        // Domain 0 is full; the store-path fallback must pick the freest
        // node of the open domain.
        let mut free = vec![ByteSize::ZERO; 3];
        free.extend([ByteSize::mb(1), ByteSize::mb(50), ByteSize::mb(5)]);
        let mut view = MockView::new(free);
        let topo = Topology::uniform_groups(6, 3);
        let picks = DomainSpread::new()
            .plan_chunk(&mut view, Some(&topo), &keys(1), 2)
            .unwrap();
        assert_eq!(picks[0].0, 4, "freest node of the open domain");
        // The repair path scatters instead (capacity at completion time, so
        // greedy freest-node picks would serialise concurrent rebuilds), but
        // still lands only in the open domain.
        let targets = DomainSpread::new().repair_targets(
            &view,
            Some(&topo),
            &RepairRequest {
                want: 1,
                size: ByteSize::kb(1),
                holders: &[],
                domain_cap: 2,
            },
            &mut DetRng::new(1),
        );
        assert_eq!(targets.len(), 1);
        assert_eq!(topo.domain_of(targets[0]), Some(1), "full domain skipped");
    }

    #[test]
    fn domain_spread_repair_counts_existing_holders() {
        // Holders already fill domain 0 to the cap; the rebuilt block must
        // land in domain 1.
        let view = MockView::new(vec![ByteSize::mb(10); 6]);
        let topo = Topology::uniform_groups(6, 3);
        let holders = vec![0, 1];
        let targets = DomainSpread::new().repair_targets(
            &view,
            Some(&topo),
            &RepairRequest {
                want: 2,
                size: ByteSize::mb(1),
                holders: &holders,
                domain_cap: 2,
            },
            &mut DetRng::new(1),
        );
        assert_eq!(targets.len(), 2);
        for t in &targets {
            assert_eq!(topo.domain_of(*t), Some(1), "domain 0 is at cap");
        }
    }

    #[test]
    fn capacity_weighted_prefers_free_nodes_and_skips_full_ones() {
        let mut free = vec![ByteSize::ZERO; 4];
        free.extend([ByteSize::gb(100), ByteSize::kb(1)]);
        let mut view = MockView::new(free);
        let mut strategy = CapacityWeighted::new(9);
        let mut hits = [0u32; 6];
        for _ in 0..50 {
            let picks = strategy
                .plan_chunk(&mut view, None, &keys(1), usize::MAX)
                .unwrap();
            hits[picks[0].0] += 1;
        }
        assert_eq!(hits[..4].iter().sum::<u32>(), 0, "full nodes never chosen");
        assert!(hits[4] > hits[5], "free space dominates the draw: {hits:?}");
    }

    #[test]
    fn strategy_kind_builds_every_strategy() {
        for kind in StrategyKind::ALL {
            let s = kind.build(1);
            assert_eq!(s.name(), kind.label());
        }
    }
}
