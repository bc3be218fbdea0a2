//! Read-only facts about the host and the process: CPU count and model,
//! git revision, peak resident memory, and a fixed arithmetic loop whose
//! time shows host drift beside every run.

use std::hint::black_box;
use std::time::Instant;

/// Logical CPUs this process may run on.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
}

/// The first `model name` line of `/proc/cpuinfo`, or `unknown`.
pub fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

/// The commit checked out in the working directory, read from `.git`
/// without running git; `unknown` outside a git checkout.
pub fn git_revision() -> String {
    let read = |p: &str| std::fs::read_to_string(p).ok();
    let Some(head) = read(".git/HEAD") else { return "unknown".into() };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else { return head.to_string() };
    if let Some(rev) = read(&format!(".git/{reference}")) {
        return rev.trim().to_string();
    }
    read(".git/packed-refs")
        .and_then(|packed| {
            packed.lines().find_map(|l| {
                let (rev, name) = l.split_once(' ')?;
                (name == reference).then(|| rev.to_string())
            })
        })
        .unwrap_or_else(|| "unknown".into())
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// Ticks (USER_HZ) the hypervisor has kept this machine's CPUs from
/// running, summed over CPUs: the `steal` column of `/proc/stat`.
pub fn steal_ticks() -> Option<u64> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    stat.lines().next()?.split_whitespace().nth(8)?.parse().ok()
}

/// Milliseconds taken by a fixed arithmetic loop. The loop never changes,
/// so a drift in its time between runs is the host's, not the program's.
/// It keeps 64 independent multiply-add chains over an L1-resident array
/// busy, so it is bound by arithmetic throughput, which another tenant on
/// the same core takes away, rather than by latency, which it does not.
pub fn drift_marker_ms() -> f64 {
    let data: Vec<f32> = (0..4096).map(|i| (i % 17) as f32 * 0.01).collect();
    let t0 = Instant::now();
    let mut acc = [0.0f32; 64];
    for _ in 0..black_box(50_000) {
        for chunk in black_box(&data).chunks_exact(64) {
            for (a, &x) in acc.iter_mut().zip(chunk) {
                *a = *a * 0.999 + x;
            }
        }
    }
    black_box(acc);
    t0.elapsed().as_secs_f64() * 1e3
}
