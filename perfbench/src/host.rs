//! Host fingerprint, peak memory and the run's scratch directory.

use std::path::{Path, PathBuf};
use std::process::Command;

use vtm_obs::escape_json;

/// What every result records about where it was measured.
#[derive(Debug, Clone)]
pub struct Fingerprint {
    /// Logical cores available to the process.
    pub nproc: usize,
    /// `rustc -V`, or `unknown`.
    pub rustc: String,
    /// CPU model from `/proc/cpuinfo`, or `unknown`.
    pub cpu: String,
    /// Workload seed.
    pub seed: u64,
    /// `git rev-parse HEAD`, or `unknown` outside a git checkout.
    pub commit: String,
}

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let output = Command::new(program).args(args).output().ok()?;
    output
        .status
        .success()
        .then(|| String::from_utf8_lossy(&output.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
}

impl Fingerprint {
    /// Probes the host.
    pub fn probe(seed: u64) -> Self {
        let cpu = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|info| {
                info.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split_once(':'))
                    .map(|(_, model)| model.trim().to_string())
            })
            .unwrap_or_else(|| "unknown".to_string());
        Self {
            nproc: std::thread::available_parallelism().map_or(1, usize::from),
            rustc: command_line("rustc", &["-V"]).unwrap_or_else(|| "unknown".to_string()),
            cpu,
            seed,
            commit: command_line("git", &["rev-parse", "HEAD"])
                .unwrap_or_else(|| "unknown".to_string()),
        }
    }

    /// One human-readable line.
    pub fn line(&self) -> String {
        format!(
            "host: nproc={} rustc=\"{}\" cpu=\"{}\" seed={} commit={}",
            self.nproc, self.rustc, self.cpu, self.seed, self.commit
        )
    }

    /// A JSON object for the trace file.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"nproc\": {}, \"rustc\": \"{}\", \"cpu\": \"{}\", \"seed\": {}, \"commit\": \"{}\"}}",
            self.nproc,
            escape_json(&self.rustc),
            escape_json(&self.cpu),
            self.seed,
            escape_json(&self.commit)
        )
    }
}

/// `struct timespec` of the C library.
#[repr(C)]
struct Timespec {
    tv_sec: std::os::raw::c_long,
    tv_nsec: std::os::raw::c_long,
}

extern "C" {
    fn clock_gettime(clock: std::os::raw::c_int, time: *mut Timespec) -> std::os::raw::c_int;
}

/// Linux's `CLOCK_PROCESS_CPUTIME_ID`.
const CLOCK_PROCESS_CPUTIME_ID: std::os::raw::c_int = 2;

/// CPU seconds this process has used so far, every thread included, also
/// threads that have ended (`CLOCK_PROCESS_CPUTIME_ID`, nanosecond
/// resolution). Time the hypervisor ran other guests on our cores (steal)
/// is not in it, so the CPU cost of a unit of work reads the same on a
/// busy shared host as on a quiet one, where its wall time does not.
pub fn cpu_seconds() -> f64 {
    let mut time = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `time` is a valid, writable `struct timespec` for the call.
    let status = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut time) };
    assert_eq!(status, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    time.tv_sec as f64 + time.tv_nsec as f64 * 1e-9
}

/// Runs `work` and returns its result with the process CPU seconds it
/// used ([`cpu_seconds`]).
pub fn cpu_timed<T>(work: impl FnOnce() -> T) -> (T, f64) {
    let before = cpu_seconds();
    let result = work();
    (result, cpu_seconds() - before)
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The run's scratch directory under `.bench_out/` in the working
/// directory (the checkout root); removed again by [`Scratch::drop`].
#[derive(Debug)]
pub struct Scratch {
    dir: PathBuf,
}

impl Scratch {
    /// Creates `.bench_out/run-<pid>/`.
    pub fn create() -> std::io::Result<Self> {
        let dir = out_dir().join(format!("run-{}", std::process::id()));
        std::fs::create_dir_all(&dir)?;
        Ok(Self { dir })
    }

    /// A path inside the scratch directory.
    pub fn path(&self, name: &str) -> PathBuf {
        self.dir.join(name)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// Where trace files and scratch data go.
pub fn out_dir() -> &'static Path {
    Path::new(".bench_out")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_clock_counts_work_on_other_threads() {
        let spin = |d: std::time::Duration| {
            let end = std::time::Instant::now() + d;
            while std::time::Instant::now() < end {
                std::hint::spin_loop();
            }
        };
        let before = cpu_seconds();
        std::thread::spawn(move || spin(std::time::Duration::from_millis(50)))
            .join()
            .unwrap();
        let used = cpu_seconds() - before;
        // Most of the 50 ms the ended thread spun (the host may have run
        // other guests for part of it).
        assert!(used > 0.01, "{used} s");
    }
}
