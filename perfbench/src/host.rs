//! Host guards and the host facts recorded with every result, so runs
//! from different machines or build modes are never compared silently.

use std::path::Path;

/// What a result was measured on.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HostInfo {
    pub nproc: usize,
    /// Threads the workload computes on (scan fan-out, serve worker).
    pub threads: usize,
    /// Concurrent socket connections the workload holds.
    pub connections: usize,
    pub profile: &'static str,
    pub git_rev: String,
}

impl HostInfo {
    /// Collect the host facts and refuse configurations that would make
    /// the numbers meaningless: a debug build, or more threads or
    /// connections than the host has cores.
    ///
    /// # Errors
    /// A message naming the violated guard.
    pub fn check(threads: usize, connections: usize) -> Result<HostInfo, String> {
        let info = HostInfo {
            nproc: std::thread::available_parallelism().map_or(1, usize::from),
            threads,
            connections,
            profile: build_profile(),
            git_rev: git_rev(Path::new(".")),
        };
        if cfg!(debug_assertions) {
            return Err("refusing to measure a debug build; build with --release".into());
        }
        if threads > info.nproc {
            return Err(format!(
                "{threads} threads requested but the host has {} cores",
                info.nproc
            ));
        }
        if connections > info.nproc {
            return Err(format!(
                "the workload needs {connections} concurrent connections but the host has {} cores",
                info.nproc
            ));
        }
        Ok(info)
    }

    #[must_use]
    pub fn line(&self) -> String {
        format!(
            "host: nproc={} threads={} connections={} profile={} git_rev={}",
            self.nproc, self.threads, self.connections, self.profile, self.git_rev
        )
    }
}

#[must_use]
pub fn build_profile() -> &'static str {
    if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    }
}

/// The checked-out revision, read from `.git` without running git; the
/// benchmark may run from an export that has no repository, which reads
/// `unknown`.
#[must_use]
pub fn git_rev(root: &Path) -> String {
    let git = root.join(".git");
    let Ok(head) = std::fs::read_to_string(git.join("HEAD")) else {
        return "unknown".into();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Ok(rev) = std::fs::read_to_string(git.join(reference)) {
        return rev.trim().to_string();
    }
    std::fs::read_to_string(git.join("packed-refs"))
        .ok()
        .and_then(|packed| {
            packed.lines().find_map(|line| {
                line.strip_suffix(reference)
                    .map(|rev| rev.trim().to_string())
            })
        })
        .unwrap_or_else(|| "unknown".into())
}

/// Peak resident set (`VmHWM`) of this process, in MiB.
#[must_use]
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))?
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()?;
    Some(kb / 1024.0)
}
