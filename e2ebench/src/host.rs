//! The host block printed with every result, so numbers from two machines —
//! or two source trees — can be told apart.

use std::path::Path;

/// What a result was measured on.
#[derive(Debug, Clone)]
pub struct Host {
    /// CPU model string.
    pub cpu: String,
    /// Logical CPUs available to the process.
    pub nproc: usize,
    /// The GF(256) lane the encode kernel resolved to.
    pub gf_lane: &'static str,
    /// Daemons in the ring (0 for purely in-process runs).
    pub daemons: usize,
    /// Commit of the checkout, when it is a git checkout.
    pub commit: String,
    /// FNV-1a digest of the checkout's Rust sources and manifests.
    pub source_digest: String,
}

impl Host {
    /// Probe the host and the checkout rooted at `root`.
    pub fn probe(root: &Path, daemons: usize) -> Host {
        Host {
            cpu: cpu_model(),
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            gf_lane: peerstripe_erasure::Gf256Kernel::best().lane_label(),
            daemons,
            commit: git_commit(root).unwrap_or_else(|| "none".to_string()),
            source_digest: format!("{:016x}", source_digest(root)),
        }
    }

    /// One `host ...` line of `key=value` pairs.
    pub fn line(&self) -> String {
        format!(
            "host cpu={:?} nproc={} gf_lane={} daemons={} commit={} source_digest={}",
            self.cpu, self.nproc, self.gf_lane, self.daemons, self.commit, self.source_digest
        )
    }
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|text| {
            text.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| std::env::consts::ARCH.to_string())
}

/// Resolve `.git/HEAD` inside `root` without running git (which would search
/// directories above the checkout).
fn git_commit(root: &Path) -> Option<String> {
    let git = root.join(".git");
    let head = std::fs::read_to_string(git.join("HEAD")).ok()?;
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return Some(head.to_string());
    };
    if let Ok(id) = std::fs::read_to_string(git.join(reference)) {
        return Some(id.trim().to_string());
    }
    let packed = std::fs::read_to_string(git.join("packed-refs")).ok()?;
    packed
        .lines()
        .filter_map(|l| l.split_once(' '))
        .find(|(_, name)| *name == reference)
        .map(|(id, _)| id.to_string())
}

/// Digest of every `.rs` and `Cargo.toml` under `root/crates`, plus the root
/// manifest and lockfile, in sorted path order.
fn source_digest(root: &Path) -> u64 {
    let mut files = Vec::new();
    collect_sources(&root.join("crates"), &mut files);
    files.push(root.join("Cargo.toml"));
    files.push(root.join("Cargo.lock"));
    files.sort();
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for path in files {
        let rel = path.strip_prefix(root).unwrap_or(&path);
        let bytes = std::fs::read(&path).unwrap_or_default();
        for b in rel.to_string_lossy().bytes().chain(bytes) {
            hash ^= u64::from(b);
            hash = hash.wrapping_mul(0x0100_0000_01b3);
        }
    }
    hash
}

fn collect_sources(dir: &Path, out: &mut Vec<std::path::PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.is_dir() {
            collect_sources(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs")
            || path.file_name().is_some_and(|n| n == "Cargo.toml")
        {
            out.push(path);
        }
    }
}

/// Cumulative (all, stolen) CPU time in clock ticks across the host's CPUs,
/// from the kernel's `cpu` line; `None` where the kernel does not expose it.
pub fn cpu_ticks() -> Option<(u64, u64)> {
    let text = std::fs::read_to_string("/proc/stat").ok()?;
    let line = text.lines().find(|l| l.starts_with("cpu "))?;
    let fields: Vec<u64> = line
        .split_whitespace()
        .skip(1)
        .filter_map(|f| f.parse().ok())
        .collect();
    // user nice system idle iowait irq softirq steal [guest guest_nice]
    let steal = *fields.get(7)?;
    Some((fields.iter().take(8).sum(), steal))
}
