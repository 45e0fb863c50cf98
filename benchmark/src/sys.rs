//! What the harness needs from the host: peak memory, scratch space inside
//! the build directory, and the provenance every result carries.

use std::path::{Path, PathBuf};

use crate::json::{self, Json};

/// Peak resident set of this process so far (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Total size of the regular files under `dir`.
pub fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|e| match e.metadata() {
            Ok(m) if m.is_dir() => dir_bytes(&e.path()),
            Ok(m) => m.len(),
            Err(_) => 0,
        })
        .sum()
}

/// A scratch directory under the build directory (next to the binary), so
/// the benchmark never writes outside its checkout. Removed on drop.
pub struct Scratch {
    path: PathBuf,
}

impl Scratch {
    pub fn new(label: &str) -> std::io::Result<Scratch> {
        let exe = std::env::current_exe()?;
        let base = exe.parent().unwrap_or(Path::new(".")).join("tmp");
        let path = base.join(format!("{label}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path)?;
        Ok(Scratch { path })
    }

    pub fn path(&self) -> &Path {
        &self.path
    }

    /// A fresh empty subdirectory (an earlier one of that name is removed).
    pub fn fresh(&self, name: &str) -> std::io::Result<PathBuf> {
        let dir = self.path.join(name);
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir)?;
        Ok(dir)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.path);
    }
}

/// How this binary was built, as `build.sh` recorded it next to the binary.
pub struct BuildInfo {
    pub route: String,
    pub opt_level: String,
    pub rustc: String,
    pub build_s: f64,
}

pub fn build_info() -> BuildInfo {
    let text = std::env::current_exe()
        .ok()
        .and_then(|exe| {
            let mut name = exe.file_name()?.to_os_string();
            name.push(".info");
            std::fs::read_to_string(exe.with_file_name(name)).ok()
        })
        .unwrap_or_default();
    let field = |key: &str| {
        text.lines()
            .find_map(|l| l.strip_prefix(key)?.strip_prefix('='))
            .unwrap_or("unknown")
            .to_string()
    };
    BuildInfo {
        route: field("build"),
        opt_level: field("opt_level"),
        rustc: field("rustc"),
        build_s: field("build_s").parse().unwrap_or(0.0),
    }
}

fn git_rev() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".to_string(), |s| s.trim().to_string())
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The provenance block of a result file.
pub fn provenance(seed: u64, seconds: f64) -> Json {
    let info = build_info();
    json::obj(vec![
        ("build", json::text(info.route)),
        ("opt_level", json::text(info.opt_level)),
        ("rustc", json::text(info.rustc)),
        ("git_rev", json::text(git_rev())),
        ("nproc", Json::Num(nproc() as f64)),
        ("seed", Json::Num(seed as f64)),
        ("seconds", Json::Num(seconds)),
        ("loop", json::text("closed, at most 2 callers")),
    ])
}
