//! Process facts read from `/proc/self/status`, and the benchmark's scratch
//! directory inside the working directory.

use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Reads one `kB`-valued or plain numeric field of `/proc/self/status`.
fn status_field(name: &str) -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    status.lines().find_map(|line| {
        let rest = line.strip_prefix(name)?.strip_prefix(':')?;
        rest.split_whitespace().next()?.parse().ok()
    })
}

/// Peak resident set size of this process so far, in MB (10^6 bytes).
///
/// # Panics
///
/// Panics when `/proc/self/status` has no `VmHWM` line (not Linux).
#[must_use]
pub fn peak_rss_mb() -> f64 {
    let kib = status_field("VmHWM").expect("VmHWM in /proc/self/status");
    kib as f64 * 1024.0 / 1e6
}

/// Threads of this process right now.
///
/// # Panics
///
/// Panics when `/proc/self/status` has no `Threads` line (not Linux).
#[must_use]
pub fn thread_count() -> u64 {
    status_field("Threads").expect("Threads in /proc/self/status")
}

/// Waits until the process is back to `threads` threads, so nothing the
/// program started is still running. Returns whether it got there within
/// `limit`.
pub fn wait_for_threads(threads: u64, limit: Duration) -> bool {
    let t0 = Instant::now();
    loop {
        if thread_count() <= threads {
            return true;
        }
        if t0.elapsed() > limit {
            return false;
        }
        std::thread::sleep(Duration::from_micros(200));
    }
}

/// A scratch directory under `.ltpbench_tmp/` in the working directory,
/// removed (with the parent, once empty) when dropped.
#[derive(Debug)]
pub struct ScratchDir {
    path: PathBuf,
}

/// Parent of every [`ScratchDir`].
pub const SCRATCH_ROOT: &str = ".ltpbench_tmp";

impl ScratchDir {
    /// Creates a fresh, empty directory named after this process and `tag`.
    ///
    /// # Errors
    ///
    /// Propagates the I/O error when the directory cannot be created.
    pub fn new(tag: &str) -> std::io::Result<ScratchDir> {
        let path = Path::new(SCRATCH_ROOT).join(format!("{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path)?;
        Ok(ScratchDir { path })
    }

    /// The directory.
    #[must_use]
    pub fn path(&self) -> &Path {
        &self.path
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.path);
        // Fails while another scratch directory is still alive; the last
        // one out removes the parent.
        let _ = std::fs::remove_dir(SCRATCH_ROOT);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn proc_status_fields_are_readable() {
        assert!(peak_rss_mb() > 0.0);
        assert!(thread_count() >= 1);
    }
}
