//! `e2ebench` — PeerStripe's end-to-end benchmark.
//!
//! ```text
//! e2ebench --workload <ring-small|ring-large|sim-insert> --seed N --seconds S --trace <0|1>
//!          [--tiny] [--inject byte|chunk|sim]
//! ```
//!
//! `--trace 0` measures the end-to-end metrics on untraced code.  `--trace 1`
//! runs the workload twice on the same seed — untraced, then through the
//! tracing wrapper — checks that both produce the same placements and call
//! counts, and reports the per-layer metrics plus the tracing overhead.
//! Every byte read back is checked; any mismatch, lost chunk or deviation
//! from the reference simulation exits non-zero.  The last line of standard
//! output is one JSON object: `correct`, `attempted`, `failed`, `metrics`.
//!
//! See `README.md` beside this crate for the workloads and metrics.

mod host;
mod metrics;
mod ring;
mod sim;
mod stats;
mod trace;

use metrics::Metric;
use peerstripe_sim::ByteSize;
use ring::{DaemonRing, Deployment, InProcess, Inject, RingSpec, RoundResult, Schedule};
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};

/// Daemons in every ring.
const RING_NODES: usize = 8;

/// Chunks the traced run replays through the codec.
const REPLAY_LIMIT: usize = 64;

/// glibc raises its mmap threshold as a process frees large buffers, so the
/// cost of every multi-hundred-KiB allocation on the byte path depends on
/// the process's allocation history — and the ring's daemons are fresh
/// processes every round.  The benchmark and its daemons run with the
/// threshold fixed at the ceiling the dynamic rule converges to (and the
/// trim threshold at twice that, as the rule sets it), the steady state of
/// a long-running process.
const MALLOC_TUNABLES: &str =
    "glibc.malloc.mmap_threshold=33554432:glibc.malloc.trim_threshold=67108864";

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    RingSmall,
    RingLarge,
    SimInsert,
}

impl Workload {
    fn parse(s: &str) -> Option<Workload> {
        match s {
            "ring-small" => Some(Workload::RingSmall),
            "ring-large" => Some(Workload::RingLarge),
            "sim-insert" => Some(Workload::SimInsert),
            _ => None,
        }
    }

    fn name(self) -> &'static str {
        match self {
            Workload::RingSmall => "ring-small",
            Workload::RingLarge => "ring-large",
            Workload::SimInsert => "sim-insert",
        }
    }

    /// The ring this workload drives (sim-insert's is its in-process twin).
    fn ring_spec(self, tiny: bool) -> RingSpec {
        // Round lengths are this host's (2-core Xeon) wall time per round.
        let (file_size, files_per_round, min_rounds, round_s) = match self {
            Workload::RingLarge => (4 << 20, 48, 5, 2.5),
            Workload::RingSmall => (256 << 10, 400, 3, 4.3),
            Workload::SimInsert => (256 << 10, 400, 6, f64::INFINITY),
        };
        RingSpec {
            file_size,
            files_per_round: if tiny { 6 } else { files_per_round },
            min_rounds: if tiny { 1 } else { min_rounds },
            round_s,
            nodes: RING_NODES,
            capacity: ByteSize::mb(1024),
        }
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    tiny: bool,
    inject: Inject,
}

fn usage() -> String {
    "usage: e2ebench --workload <ring-small|ring-large|sim-insert> --seed N --seconds S \
     --trace <0|1> [--tiny] [--inject byte|chunk|sim]"
        .to_string()
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut tiny = false;
    let mut inject = Inject::None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                workload = Some(Workload::parse(&v).ok_or(format!("unknown workload {v}"))?);
            }
            "--seed" => {
                seed = Some(
                    value()?
                        .parse::<u64>()
                        .map_err(|e| format!("--seed: {e}"))?,
                )
            }
            "--seconds" => {
                let s = value()?
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if s.is_nan() || s <= 0.0 {
                    return Err("--seconds must be positive".to_string());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                })
            }
            "--tiny" => tiny = true,
            "--inject" => {
                inject = match value()?.as_str() {
                    "byte" => Inject::Byte,
                    "chunk" => Inject::Chunk,
                    "sim" => Inject::Sim,
                    other => return Err(format!("unknown fault {other}")),
                }
            }
            "--help" | "-h" => return Err(usage()),
            other => return Err(format!("unknown flag {other}\n{}", usage())),
        }
    }
    Ok(Args {
        workload: workload.ok_or_else(usage)?,
        seed: seed.ok_or_else(usage)?,
        seconds: seconds.ok_or_else(usage)?,
        trace: trace.ok_or_else(usage)?,
        tiny,
        inject,
    })
}

/// The checkout this benchmark was built from.
fn checkout_root() -> PathBuf {
    let manifest = Path::new(env!("CARGO_MANIFEST_DIR"));
    manifest.parent().unwrap_or(manifest).to_path_buf()
}

/// The cargo target directory this binary was built into.
fn target_dir() -> Result<PathBuf, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating the benchmark binary: {e}"))?;
    exe.parent()
        .and_then(Path::parent)
        .map(Path::to_path_buf)
        .ok_or_else(|| format!("{} has no target directory", exe.display()))
}

/// Build the repository's `peerstripe-node` daemon from source (a no-op when
/// it is up to date) and return its path.
fn daemon_binary(root: &Path) -> Result<PathBuf, String> {
    let target = target_dir()?.join("e2ebench-node");
    let cargo = std::env::var_os("CARGO").unwrap_or_else(|| "cargo".into());
    let status = Command::new(cargo)
        .args(["build", "--release", "--offline", "--locked", "--quiet"])
        .args(["-p", "peerstripe-net", "--bin", "peerstripe-node"])
        .arg("--manifest-path")
        .arg(root.join("Cargo.toml"))
        .arg("--target-dir")
        .arg(&target)
        .stdout(Stdio::null())
        .status()
        .map_err(|e| format!("running cargo to build peerstripe-node: {e}"))?;
    if !status.success() {
        return Err(format!("building peerstripe-node failed: {status}"));
    }
    Ok(target.join("release").join("peerstripe-node"))
}

/// What a run reports.
struct Report {
    metrics: Vec<Metric>,
    attempted: u64,
    lines: Vec<String>,
}

/// Run a ring-shaped workload on deployments made by `setup`.
fn ring_workload<D, S>(args: &Args, spec: &RingSpec, mut setup: S) -> Result<RingRun, String>
where
    D: Deployment,
    D::Base: trace::Layered<Base = D::Base>,
    S: FnMut(usize) -> Result<(D, D::Base, f64), String>,
{
    let schedule = spec.schedule(args.seconds);
    if !args.trace {
        let all = ring::run_pass(spec, args.seed, schedule, false, args.inject, &mut setup)?;
        return Ok(RingRun {
            untraced: ring::least_disturbed(all.clone(), schedule.keep),
            all,
            traced: Vec::new(),
        });
    }
    // The traced run splits its time between an untraced and a traced pass
    // over the same rounds.
    let rounds = Schedule::exactly(schedule.keep.div_ceil(2));
    let untraced = ring::run_pass(spec, args.seed, rounds, false, args.inject, &mut setup)?;
    let traced = ring::run_pass(spec, args.seed, rounds, true, args.inject, &mut setup)?;
    if let Some(diff) = ring::transparency_diff(&untraced, &traced) {
        return Err(format!(
            "the traced run diverged from the untraced run: {diff}"
        ));
    }
    Ok(RingRun {
        all: untraced.clone(),
        untraced,
        traced,
    })
}

struct RingRun {
    /// Every untraced round, in order.
    all: Vec<RoundResult>,
    /// The untraced rounds the end-to-end metrics use.
    untraced: Vec<RoundResult>,
    /// The traced rounds (traced runs only).
    traced: Vec<RoundResult>,
}

impl RingRun {
    fn attempted(&self) -> u64 {
        self.all
            .iter()
            .chain(&self.traced)
            .map(|r| r.attempted)
            .sum()
    }

    /// Per-layer metrics of the traced pass, with the codec replay.
    fn per_layer(
        &self,
        seed: u64,
        insert: &metrics::InsertLayer,
        store_ms: &[f64],
    ) -> Result<Vec<Metric>, String> {
        let cases: Vec<ring::ChunkCase> =
            self.traced.iter().flat_map(|r| r.cases.clone()).collect();
        let replay = metrics::replay(seed, &cases, REPLAY_LIMIT)?;
        Ok(metrics::per_layer(
            &self.untraced,
            &self.traced,
            &replay,
            insert,
            store_ms,
        ))
    }

    fn summary(&self) -> Vec<String> {
        let mut lines: Vec<String> = self
            .all
            .iter()
            .map(|r| {
                let kept = self.untraced.iter().any(|k| k.round == r.round);
                format!(
                    "round {}{}: setup {:.3} s, {} stores (p50 {:.3} ms), {} fetches (p50 {:.3} ms), victim node {} ({} unsafe), {} blocks regenerated in {:.3} s, steal {:.1}%",
                    r.round,
                    if kept { "" } else { " (dropped)" },
                    r.setup_s,
                    r.store_ms.len(),
                    stats::median(&r.store_ms),
                    r.fetch_ms.len(),
                    stats::median(&r.fetch_ms),
                    r.victim,
                    r.unsafe_holders,
                    r.blocks_regenerated,
                    r.repair_s,
                    100.0 * r.steal
                )
            })
            .collect();
        lines.extend(metrics::breakdown(&self.traced));
        lines
    }
}

fn write_spans(path: &Path, rounds: &[RoundResult]) -> Result<(), String> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    }
    let mut text = String::new();
    for r in rounds {
        for s in &r.spans {
            text.push_str(&s.jsonl(r.round));
            text.push('\n');
        }
    }
    std::fs::write(path, text).map_err(|e| format!("writing {}: {e}", path.display()))
}

fn run(args: &Args, root: &Path) -> Result<Report, String> {
    let spec = args.workload.ring_spec(args.tiny);
    let mut sim_lines = Vec::new();
    let (run, mut metrics, insert, store_ms) = match args.workload {
        Workload::RingSmall | Workload::RingLarge => {
            let bin = daemon_binary(root)?;
            let run = ring_workload(args, &spec, |_| DaemonRing::setup(&bin, &spec))?;
            let mut m = Vec::new();
            if !args.trace {
                m.extend(metrics::ring_store_side(&run.untraced));
                m.extend(metrics::ring_read_side(&run.untraced));
            }
            let insert = metrics::InsertLayer::from_ring(&run.traced);
            let store_ms: Vec<f64> = run
                .untraced
                .iter()
                .flat_map(|r| r.store_ms.clone())
                .collect();
            (run, m, insert, store_ms)
        }
        Workload::SimInsert => {
            let sim_spec = if args.tiny {
                sim::SimSpec::tiny()
            } else {
                sim::SimSpec::paper()
            };
            let passes = sim_spec.passes(args.seconds);
            let insertion = sim::run_insertion(&sim_spec, args.seed, passes, args.inject)?;
            let seed = args.seed;
            // More nodes than the ring: with random overlay ids an 8-node
            // cluster often has no node whose loss every chunk survives.
            let twin = RingSpec {
                nodes: 32,
                ..spec.clone()
            };
            let run = ring_workload(args, &twin, |round| {
                Ok(InProcess::setup(&twin, seed ^ round as u64))
            })?;
            let mut m = Vec::new();
            if !args.trace {
                m.extend(insertion.end_to_end());
                m.extend(metrics::ring_read_side(&run.untraced));
            }
            sim_lines = insertion.lines.clone();
            let mut attempted_run = run;
            // Every insertion pass stores the whole trace.
            attempted_run.all[0].attempted +=
                insertion.metrics.files_attempted * insertion.setup_s.len() as u64;
            let store_ms: Vec<f64> = insertion
                .layer
                .insert_us
                .iter()
                .map(|us| us / 1e3)
                .collect();
            (attempted_run, m, insertion.layer, store_ms)
        }
    };
    let mut lines = sim_lines;
    lines.extend(run.summary());
    if args.trace {
        metrics = run.per_layer(args.seed, &insert, &store_ms)?;
        let path = target_dir()?.join("e2ebench-spans").join(format!(
            "{}-seed{}.jsonl",
            args.workload.name(),
            args.seed
        ));
        write_spans(&path, &run.traced)?;
        lines.push(format!("spans written to {}", path.display()));
    }
    Ok(Report {
        metrics,
        attempted: run.attempted(),
        lines,
    })
}

fn json_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let fields: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\":{{\"value\":{},\"unit\":\"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\":{correct},\"attempted\":{attempted},\"failed\":{failed},\"metrics\":{{{}}}}}",
        fields.join(",")
    )
}

/// Re-run this binary with [`MALLOC_TUNABLES`] in its environment (glibc
/// reads tunables only at start-up); returns the child's exit code, or
/// `None` when this process already runs with them.
fn with_pinned_allocator() -> Option<i32> {
    if std::env::var("GLIBC_TUNABLES").as_deref() == Ok(MALLOC_TUNABLES) {
        return None;
    }
    let exe = std::env::current_exe().ok()?;
    let status = Command::new(exe)
        .args(std::env::args_os().skip(1))
        .env("GLIBC_TUNABLES", MALLOC_TUNABLES)
        .status()
        .ok()?;
    Some(status.code().unwrap_or(1))
}

fn main() {
    if let Some(code) = with_pinned_allocator() {
        std::process::exit(code);
    }
    let args = match parse_args() {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("{msg}");
            std::process::exit(2);
        }
    };
    let root = checkout_root();
    let daemons = match args.workload {
        Workload::SimInsert => 0,
        _ => RING_NODES,
    };
    println!("{}", host::Host::probe(&root, daemons).line());
    println!(
        "workload {} seed={} seconds={} trace={}{}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        if args.tiny { " tiny" } else { "" }
    );
    let outcome = run(&args, &root).and_then(|report| {
        match report.metrics.iter().find(|m| !m.value.is_finite()) {
            Some(m) => Err(format!("metric {} is not a number ({})", m.name, m.value)),
            None => Ok(report),
        }
    });
    match outcome {
        Ok(report) => {
            for line in &report.lines {
                println!("{line}");
            }
            for m in &report.metrics {
                let note = if m.note.is_empty() {
                    String::new()
                } else {
                    format!("  ({})", m.note)
                };
                println!("metric {} = {} {}{note}", m.name, m.value, m.unit);
            }
            println!(
                "{}",
                json_line(true, report.attempted.max(1), 0, &report.metrics)
            );
        }
        Err(e) => {
            eprintln!("error: {e}");
            println!("{}", json_line(false, 1, 1, &[]));
            std::process::exit(1);
        }
    }
}
