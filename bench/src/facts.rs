//! The machine-facts block every result carries: numbers from two boxes
//! (or two kernels, compilers, filesystems) are not comparable, and the
//! block says which box a result came from.

use std::path::Path;

/// Where a result was measured.
#[derive(Debug, Clone)]
pub struct Facts {
    pub nproc: usize,
    pub kernel: String,
    pub rustc: &'static str,
    /// Filesystem type under the durability directory.
    pub filesystem: String,
}

/// Filesystem type of the mount holding `path` (longest mount-point
/// prefix in `/proc/self/mounts`); `unknown` off Linux.
fn filesystem_of(path: &Path) -> String {
    let path = path.canonicalize().unwrap_or_else(|_| path.to_path_buf());
    let mounts = std::fs::read_to_string("/proc/self/mounts").unwrap_or_default();
    mounts
        .lines()
        .filter_map(|line| {
            let mut fields = line.split_whitespace();
            let (_, mount, fstype) = (fields.next()?, fields.next()?, fields.next()?);
            path.starts_with(mount).then_some((mount.len(), fstype))
        })
        .max_by_key(|(len, _)| *len)
        .map_or_else(|| "unknown".to_string(), |(_, fstype)| fstype.to_string())
}

impl Facts {
    /// Reads the facts; `durability_root` must exist.
    pub fn read(durability_root: &Path) -> Facts {
        Facts {
            nproc: std::thread::available_parallelism().map_or(0, |n| n.get()),
            kernel: std::fs::read_to_string("/proc/sys/kernel/osrelease")
                .map_or_else(|_| "unknown".to_string(), |s| s.trim().to_string()),
            rustc: env!("BENCH_RUSTC_VERSION"),
            filesystem: filesystem_of(durability_root),
        }
    }
}

impl std::fmt::Display for Facts {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "nproc {} | kernel {} | {} | durability dir on {}",
            self.nproc, self.kernel, self.rustc, self.filesystem
        )
    }
}
