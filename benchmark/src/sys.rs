//! What the run records about its host, the heap it used, and the
//! scratch directory its artefacts go to.

use serde::Value;
use std::alloc::{GlobalAlloc, Layout, System};
use std::path::{Path, PathBuf};
use std::process::Command;
use std::sync::atomic::{AtomicUsize, Ordering};

/// The system allocator, counting live and peak heap bytes. Peak heap
/// is the memory metric because `VmHWM` of the small workloads is
/// mostly file-backed code pages, whose count changes from run to run
/// with the page cache; the heap peak of a single-threaded workload
/// repeats exactly.
pub struct CountingAlloc;

/// Bytes currently allocated.
static LIVE: AtomicUsize = AtomicUsize::new(0);
/// Most bytes ever allocated at once.
static PEAK: AtomicUsize = AtomicUsize::new(0);

impl CountingAlloc {
    fn grow(by: usize) {
        // Relaxed: both counters are statistics that publish no data.
        let live = LIVE.fetch_add(by, Ordering::Relaxed) + by;
        PEAK.fetch_max(live, Ordering::Relaxed);
    }

    fn shrink(by: usize) {
        LIVE.fetch_sub(by, Ordering::Relaxed);
    }
}

// SAFETY: every method forwards to `System` with the caller's layout and
// pointer unchanged, so `System`'s guarantees carry over; the counters
// are only updated after a successful allocation and never affect the
// returned memory.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: forwarded with the caller's layout (non-zero size per
        // the `GlobalAlloc` contract).
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            Self::grow(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: as in `alloc`.
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            Self::grow(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was allocated by this allocator, i.e. by
        // `System`, with `layout`, as the caller guarantees.
        unsafe { System.dealloc(ptr, layout) };
        Self::shrink(layout.size());
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: the caller's guarantees for `realloc` are `System`'s.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            Self::shrink(layout.size());
            Self::grow(new_size);
        }
        p
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Most heap this process has held at once, in MB (10^6 bytes).
pub fn peak_heap_mb() -> f64 {
    PEAK.load(Ordering::Relaxed) as f64 / 1e6
}

/// Filesystem type of the mount holding `path` (longest matching mount
/// point in `/proc/mounts`), or `"unknown"`.
pub fn filesystem(path: &Path) -> String {
    let Ok(path) = path.canonicalize() else {
        return "unknown".into();
    };
    let Ok(mounts) = std::fs::read_to_string("/proc/mounts") else {
        return "unknown".into();
    };
    mounts
        .lines()
        .filter_map(|l| {
            let mut f = l.split_whitespace();
            let (_, point, fstype) = (f.next()?, f.next()?, f.next()?);
            path.starts_with(point)
                .then(|| (point.len(), fstype.to_string()))
        })
        .max()
        .map_or_else(|| "unknown".into(), |(_, t)| t)
}

/// First line of a command's stdout, or `"unknown"`.
fn command_line(program: &str, args: &[&str], dir: &Path) -> String {
    Command::new(program)
        .args(args)
        .current_dir(dir)
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".into())
}

/// The results header: where scratch artefacts went (relative to the
/// checkout) and what ran them.
pub fn header() -> Value {
    let here = Path::new(env!("CARGO_MANIFEST_DIR"));
    let scratch = crate::default_out();
    let root = here.parent().unwrap_or(here);
    let shown = scratch.strip_prefix(root).unwrap_or(&scratch);
    Value::Object(vec![
        (
            "git_rev".into(),
            Value::Str(command_line("git", &["rev-parse", "--short", "HEAD"], here)),
        ),
        (
            "rustc".into(),
            Value::Str(command_line("rustc", &["--version"], here)),
        ),
        (
            "nproc".into(),
            Value::UInt(std::thread::available_parallelism().map_or(1, |n| n.get()) as u64),
        ),
        (
            "scratch_dir".into(),
            Value::Str(shown.display().to_string()),
        ),
        ("filesystem".into(), Value::Str(filesystem(&scratch))),
    ])
}

/// A fresh, empty directory for one run's artefacts. When dropped,
/// every file in it is truncated to zero length, and nothing is
/// removed: on a journal-less ext4, inodes freed in the last half
/// minute make every later file creation in their block group up to
/// ten times slower, so removing the artefacts of one run slowed the
/// campaign and service workloads of the next by up to 40 %. Truncation
/// frees the data (usually before it ever reached the disk) and keeps
/// the inodes; delete the `out/` directory between benchmark sessions,
/// not right before one.
pub struct Scratch(PathBuf);

impl Scratch {
    /// Create `<parent>/scratch-<name>-<pid>`, emptying any leftover.
    pub fn new(parent: &Path, name: &str) -> std::io::Result<Self> {
        let dir = parent.join(format!("scratch-{name}-{}", std::process::id()));
        if dir.exists() {
            std::fs::remove_dir_all(&dir)?;
        }
        std::fs::create_dir_all(&dir)?;
        Ok(Self(dir))
    }

    /// The directory.
    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        for file in files_under(&self.0) {
            let _ = std::fs::File::create(file);
        }
    }
}

/// Every file under `dir`, recursively.
pub fn files_under(dir: &Path) -> Vec<PathBuf> {
    let mut out = Vec::new();
    let mut stack = vec![dir.to_path_buf()];
    while let Some(d) = stack.pop() {
        for entry in std::fs::read_dir(&d).into_iter().flatten().flatten() {
            let path = entry.path();
            if path.is_dir() {
                stack.push(path);
            } else {
                out.push(path);
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn peak_heap_tracks_a_large_allocation() {
        let before = peak_heap_mb();
        let v = vec![1u8; 8_000_000];
        assert!(peak_heap_mb() >= before.max(8.0), "{}", peak_heap_mb());
        drop(std::hint::black_box(v));
    }

    #[test]
    fn scratch_files_are_emptied_when_dropped() {
        let parent = crate::default_out().join(format!("test-sys-{}", std::process::id()));
        let file = {
            let s = Scratch::new(&parent, "t").unwrap();
            std::fs::create_dir(s.path().join("d")).unwrap();
            std::fs::write(s.path().join("d/f"), b"x").unwrap();
            assert_eq!(files_under(s.path()), [s.path().join("d/f")]);
            assert_ne!(filesystem(s.path()), "");
            s.path().join("d/f")
        };
        assert_eq!(std::fs::metadata(&file).unwrap().len(), 0);
        std::fs::remove_dir_all(&parent).unwrap();
    }
}
