//! sim-insert: the paper's Figure 7–9 PeerStripe insertion at paper scale,
//! built and driven by the harness so set-up is timed apart from the insert
//! loop, and checked against `storesim::run_single_system`.

use crate::metrics::{InsertLayer, Metric};
use crate::ring::Inject;
use crate::stats;
use peerstripe_core::{ClusterConfig, PeerStripe, PeerStripeConfig, StorageSystem, StoreMetrics};
use peerstripe_experiments::storesim::{run_single_system, StoreSimConfig, SystemKind};
use peerstripe_experiments::Scale;
use peerstripe_sim::{ByteSize, DetRng};
use peerstripe_trace::TraceConfig;
use std::time::Instant;

/// Size of the insertion.
#[derive(Debug, Clone, Copy)]
pub struct SimSpec {
    /// Overlay nodes.
    pub nodes: usize,
    /// Trace files inserted (120 per node, as in the paper).
    pub files: usize,
    /// Figure sample points `run_single_system` takes along the way.
    pub samples: usize,
    /// Nominal seconds of one set-up plus insertion on the reference host; a
    /// run of S seconds makes `max(1, round(S / pass_s))` passes.
    pub pass_s: f64,
}

impl SimSpec {
    /// The paper's 10 000 nodes and 1.2 M files.
    pub fn paper() -> SimSpec {
        SimSpec {
            nodes: Scale::Paper.nodes(),
            files: Scale::Paper.trace_files(),
            samples: Scale::Paper.sample_points(),
            pass_s: 7.5,
        }
    }

    /// A small instance with the same per-node load, for smoke tests.
    pub fn tiny() -> SimSpec {
        SimSpec {
            nodes: 100,
            files: 100 * 120,
            samples: 4,
            pass_s: 0.5,
        }
    }

    /// Insertion passes in a run of `seconds`.
    pub fn passes(&self, seconds: f64) -> usize {
        ((seconds / self.pass_s).round() as usize).max(1)
    }

    fn store_sim_config(&self, seed: u64) -> StoreSimConfig {
        StoreSimConfig {
            nodes: self.nodes,
            files: self.files,
            samples: self.samples,
            track_objects: false,
            seed,
        }
    }
}

/// What the insertion passes measured.
pub struct Insertion {
    /// Seconds per set-up (trace generation plus cluster build).
    pub setup_s: Vec<f64>,
    /// Seconds the fastest pass's insert loop took.
    pub loop_s: f64,
    /// The insertion layer of the fastest pass.
    pub layer: InsertLayer,
    /// The system's store metrics at the end of a pass.
    pub metrics: StoreMetrics,
    /// Figure 9's utilization at the end of a pass, in percent.
    pub utilization_pct: f64,
    /// One report line per pass run.
    pub lines: Vec<String>,
}

/// The configuration `run_single_system` gives PeerStripe.
fn peerstripe_config() -> PeerStripeConfig {
    PeerStripeConfig {
        max_chunk_size: Some(ByteSize::mb(96)),
        track_manifests: false,
        ..PeerStripeConfig::paper_simulation()
    }
}

/// Outcome of one pass that must repeat exactly: failed stores, utilization
/// and chunks per file.
fn outcome(metrics: &StoreMetrics, utilization_pct: f64) -> [(&'static str, f64); 3] {
    [
        ("failed-store %", metrics.failed_store_pct()),
        ("utilization %", utilization_pct),
        ("chunks per file", metrics.mean_chunks_per_file()),
    ]
}

/// One set-up + insertion pass.
struct Pass {
    setup_s: f64,
    loop_s: f64,
    insert_us: Vec<f64>,
    failed_us: Vec<f64>,
}

/// Run `passes_to_run` set-up + insertion passes with every `store_file`
/// timed, then check the outcome against `run_single_system` on the same
/// trace and seed.
///
/// The passes are the same deterministic computation (the check below
/// proves they end identically), so the spread between them is the host's:
/// on a shared machine other tenants' memory traffic stretched identical
/// passes from 6 to 10 s with no CPU time stolen.  The fastest pass is the
/// estimate of the code's own cost, and its timings are the ones reported.
pub fn run_insertion(
    spec: &SimSpec,
    seed: u64,
    passes_to_run: usize,
    inject: Inject,
) -> Result<Insertion, String> {
    let config = spec.store_sim_config(seed);
    let mut passes: Vec<Pass> = Vec::with_capacity(passes_to_run);
    let mut last = None;
    let mut kept_trace = None;
    for _ in 0..passes_to_run.max(1) {
        // Free the previous pass's trace before generating the next.
        drop(kept_trace.take());
        let start = Instant::now();
        let trace = TraceConfig::scaled(config.files).generate(seed ^ 0x7ace);
        let mut cluster_cfg = ClusterConfig::scaled(config.nodes);
        cluster_cfg.track_objects = config.track_objects;
        let cluster = cluster_cfg.build(&mut DetRng::new(seed));
        let setup_s = start.elapsed().as_secs_f64();

        let mut system = PeerStripe::new(cluster, peerstripe_config());
        let mut insert_us = Vec::with_capacity(config.files);
        let mut failed_us = Vec::new();
        let start = Instant::now();
        for file in &trace.files {
            let t = Instant::now();
            let outcome = system.store_file(file);
            let us = t.elapsed().as_secs_f64() * 1e6;
            insert_us.push(us);
            if !outcome.is_stored() {
                failed_us.push(us);
            }
        }
        passes.push(Pass {
            setup_s,
            loop_s: start.elapsed().as_secs_f64(),
            insert_us,
            failed_us,
        });
        let metrics = system.metrics().clone();
        let utilization_pct = system.utilization() * 100.0;
        let lookups = system.cluster().overlay().stats().lookups;
        if let Some((m, u, l)) = &last {
            if outcome(m, *u) != outcome(&metrics, utilization_pct) || *l != lookups {
                return Err("two insertion passes of one seed disagree".to_string());
            }
        }
        drop(system);
        last = Some((metrics, utilization_pct, lookups));
        kept_trace = Some(trace);
    }
    let (Some((metrics, utilization_pct, lookups)), Some(trace)) = (last, kept_trace) else {
        return Err("no insertion ran".to_string());
    };

    // The reference: the repository's own Figure 7–9 experiment on the same
    // trace and seed must reach exactly the same outcome.
    let reference_seed = if inject == Inject::Sim {
        seed + 1
    } else {
        seed
    };
    let reference = run_single_system(
        SystemKind::PeerStripe,
        &spec.store_sim_config(reference_seed),
        &trace,
    );
    let want = [
        reference.final_failed_pct,
        reference.final_utilization_pct,
        reference.chunk_count_mean,
    ];
    for ((what, got), want) in outcome(&metrics, utilization_pct).into_iter().zip(want) {
        if got.to_bits() != want.to_bits() {
            return Err(format!(
                "sim-insert {what} is {got} but run_single_system gives {want}"
            ));
        }
    }
    let lines = passes
        .iter()
        .enumerate()
        .map(|(i, p)| {
            format!(
                "pass {}: setup {:.3} s, insert {:.3} s",
                i + 1,
                p.setup_s,
                p.loop_s
            )
        })
        .collect();
    let setup_s = passes.iter().map(|p| p.setup_s).collect();
    let fastest = passes
        .into_iter()
        .min_by(|a, b| a.loop_s.total_cmp(&b.loop_s))
        .ok_or("no insertion ran")?;
    let attempted = metrics.files_attempted as f64;
    Ok(Insertion {
        setup_s,
        loop_s: fastest.loop_s,
        layer: InsertLayer {
            insert_us: fastest.insert_us,
            failed_us: fastest.failed_us,
            lookups_per_file: lookups as f64 / attempted,
            chunks_per_file: metrics.mean_chunks_per_file(),
            zero_chunks_per_file: metrics.zero_chunks as f64 / attempted,
        },
        metrics,
        utilization_pct,
        lines,
    })
}

impl Insertion {
    /// The insertion's end-to-end metrics.
    pub fn end_to_end(&self) -> Vec<Metric> {
        let m = &self.metrics;
        let us = &self.layer.insert_us;
        vec![
            Metric::new("setup_s", stats::median(&self.setup_s), "s")
                .with_note(format!("median of {} set-ups", self.setup_s.len())),
            Metric::new("store_p50_ms", stats::median(us) / 1e3, "ms")
                .with_note(format!("{} inserts of the fastest pass", us.len())),
            Metric::new(
                "insert_files_per_s",
                m.files_attempted as f64 / self.loop_s,
                "files/s",
            )
            .with_note(format!(
                "{} files in {:.3} s, the fastest of {} passes",
                m.files_attempted,
                self.loop_s,
                self.setup_s.len()
            )),
            Metric::new("stored_pct", 100.0 - m.failed_store_pct(), "%").with_note(format!(
                "{} of {} stores refused",
                m.files_failed, m.files_attempted
            )),
            Metric::new("utilization_pct", self.utilization_pct, "%"),
            Metric::new(
                "space_amp",
                m.bytes_placed.as_u64() as f64 / m.bytes_stored.as_u64() as f64,
                "ratio",
            ),
        ]
    }
}
