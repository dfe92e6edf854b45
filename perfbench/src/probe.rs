//! Process probes (CPU time, peak RSS, host speed) and the host
//! fingerprint.

use adaptbf_workload::json::Json;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};
use std::hint::black_box;
use std::process::Command;
use std::time::Instant;

/// Process CPU time (user + system, all threads, live and exited) in
/// seconds. This is the accounting `/proc/self/stat` reports as utime +
/// stime, read through `CLOCK_PROCESS_CPUTIME_ID` because the stat file's
/// 10 ms clock ticks are too coarse for a half-second live rung.
pub fn cpu_s() -> f64 {
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
    }
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, exclusively borrowed `struct timespec`
    // (two 64-bit fields on the 64-bit Linux targets this runs on).
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 / 1e9
}

/// Restart the peak [`peak_rss_mb`] reports from the current resident
/// set (`5` to `/proc/self/clear_refs`). Where the kernel refuses, the peak
/// stays the process's lifetime peak.
pub fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// Peak resident set size since the process started or the last
/// [`reset_peak_rss`], MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Nominal duration of [`reference_loop_s`]: the time metrics are scaled
/// to a host that runs the loop in exactly this long.
pub const REFERENCE_S: f64 = 1e-3;

/// Wall time of a fixed discrete-event loop owned by the benchmark (an
/// event heap of 1024 entries popped and re-pushed 20,000 times, each event
/// bumping one of 4096 hash-map counters). On a shared host the program's
/// speed swings by up to 1.6× with its neighbours' use of the core's
/// caches; this loop, built like the simulator's core but frozen with the
/// benchmark, swings with it (its run median correlates with a run's
/// throughput at −0.93 to −0.96), so dividing by it takes the host out of a
/// time metric and leaves the program in.
pub fn reference_loop_s() -> f64 {
    let t0 = Instant::now();
    let mut heap: BinaryHeap<Reverse<u64>> =
        (0..1024u64).map(|i| Reverse(i * 7919 % 10_007)).collect();
    let mut counters: HashMap<u64, u64> = HashMap::new();
    let mut x = 7u64;
    for _ in 0..20_000 {
        let Reverse(t) = heap.pop().expect("the heap never drains");
        x = x
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        *counters.entry(x % 4096).or_default() += t;
        heap.push(Reverse(t + 1 + (x >> 54)));
    }
    black_box(counters.len());
    t0.elapsed().as_secs_f64()
}

/// Logical CPUs available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Where a result was measured. Two results are comparable only when
/// everything but `git_rev` matches: the revision is what an A/B
/// comparison varies, the rest is the host and build it must hold fixed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Fingerprint {
    pub nproc: usize,
    pub cpu_model: String,
    pub rustc: String,
    pub git_rev: String,
    pub profile: String,
    pub threads: usize,
}

impl Fingerprint {
    /// Probe the current host; `threads` is the budget the workload ran
    /// under.
    pub fn probe(threads: usize) -> Self {
        let cpuinfo = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
        let cpu_model = cpuinfo
            .lines()
            .find_map(|l| l.strip_prefix("model name"))
            .and_then(|l| l.split_once(':'))
            .map_or("unknown", |(_, v)| v.trim())
            .to_string();
        Fingerprint {
            nproc: nproc(),
            cpu_model,
            rustc: command_line("rustc", &["-V"]),
            git_rev: command_line("git", &["rev-parse", "--short=12", "HEAD"]),
            profile: if cfg!(debug_assertions) {
                "debug".into()
            } else {
                "release".into()
            },
            threads,
        }
    }

    /// The fields a comparison must see equal (all but `git_rev`).
    pub fn host_key(&self) -> (usize, &str, &str, &str, usize) {
        (
            self.nproc,
            &self.cpu_model,
            &self.rustc,
            &self.profile,
            self.threads,
        )
    }

    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("nproc", Json::num_u64(self.nproc as u64)),
            ("cpu_model", Json::str(&self.cpu_model)),
            ("rustc", Json::str(&self.rustc)),
            ("git_rev", Json::str(&self.git_rev)),
            ("profile", Json::str(&self.profile)),
            ("threads", Json::num_u64(self.threads as u64)),
        ])
    }

    pub fn from_json(j: &Json) -> Option<Self> {
        let s = |k: &str| j.get(k).and_then(Json::as_str).map(str::to_string);
        let n = |k: &str| j.get(k).and_then(Json::as_u64).map(|v| v as usize);
        Some(Fingerprint {
            nproc: n("nproc")?,
            cpu_model: s("cpu_model")?,
            rustc: s("rustc")?,
            git_rev: s("git_rev")?,
            profile: s("profile")?,
            threads: n("threads")?,
        })
    }
}

/// First line of a command's standard output, or `unknown` when it cannot
/// run (no git checkout, no toolchain on `PATH`). Waits for the child.
fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| {
            String::from_utf8(o.stdout)
                .ok()
                .and_then(|s| s.lines().next().map(str::to_string))
        })
        .unwrap_or_else(|| "unknown".into())
}
