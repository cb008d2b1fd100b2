//! Host stamp and process memory readings.
//!
//! Figures are only comparable between like hosts, so every run prints
//! the core count, the SIMD kernel the dispatcher picks, the compiler and
//! the source revision next to its metrics.

use std::process::Command;

/// Cores available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// What a run was measured on.
#[derive(Debug, Clone)]
pub struct HostStamp {
    /// Cores available to the process.
    pub nproc: usize,
    /// SIMD path `select(None, None)` resolves to (e.g. `avx2`).
    pub simd_path: String,
    /// Lane width of that selection.
    pub simd_lanes: usize,
    /// `rustc --version`, or `unknown`.
    pub rustc: String,
    /// `git rev-parse HEAD` of the checkout, or `unknown` when the
    /// sources are not a git repository.
    pub git_rev: String,
}

impl HostStamp {
    /// Probe the running host.
    pub fn probe() -> Self {
        let sel = repro::select(None, None).expect("auto-dispatch always resolves");
        HostStamp {
            nproc: nproc(),
            simd_path: sel.path.to_string(),
            simd_lanes: sel.width.lanes(),
            rustc: command_line(Command::new("rustc").arg("--version")),
            git_rev: git_rev(),
        }
    }

    /// The stamp as a JSON object.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"nproc\": {}, \"simd_path\": \"{}\", \"simd_lanes\": {}, \"rustc\": \"{}\", \"git_rev\": \"{}\"}}",
            self.nproc,
            self.simd_path,
            self.simd_lanes,
            json_escape(&self.rustc),
            json_escape(&self.git_rev)
        )
    }
}

/// The checkout's git revision. Git may not look above the working
/// directory, so a repository enclosing the checkout is never reported.
fn git_rev() -> String {
    let mut git = Command::new("git");
    git.args(["rev-parse", "HEAD"]);
    if let Ok(dir) = std::env::current_dir() {
        if let Some(parent) = dir.parent() {
            git.env("GIT_CEILING_DIRECTORIES", parent);
        }
    }
    command_line(&mut git)
}

/// First line of a command's standard output, or `unknown` if it cannot
/// run or fails. `output()` waits for the child to exit.
fn command_line(cmd: &mut Command) -> String {
    cmd.output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| {
            String::from_utf8(o.stdout)
                .ok()
                .and_then(|s| s.lines().next().map(str::to_owned))
        })
        .unwrap_or_else(|| "unknown".into())
}

/// Escape a string for a JSON string literal.
pub fn json_escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

/// Reset the process's peak resident set (`VmHWM`) to its current
/// resident set, so the next reading covers only what follows.
pub fn reset_peak_rss() {
    // Writing "5" to clear_refs resets the high-water mark (Linux ≥ 4.0).
    // Failure just leaves the older, higher peak in place.
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// Peak resident set since the last [`reset_peak_rss`], in MB (10⁶ B).
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kb * 1024.0 / 1e6)
}
