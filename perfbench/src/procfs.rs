//! Process sampler: peak resident set, minor faults and CPU split of this
//! process, read from `/proc/self`. Every benchmark run is a fresh process,
//! so these figures belong to one workload alone.

use std::fs;

/// Cumulative process counters at one instant.
#[derive(Debug, Clone, Copy, Default)]
pub struct ProcSample {
    /// Minor page faults so far.
    pub minflt: u64,
    /// User CPU time so far, clock ticks.
    pub utime: u64,
    /// System CPU time so far, clock ticks.
    pub stime: u64,
}

impl ProcSample {
    /// Reads `/proc/self/stat`. Fields after the parenthesised command name
    /// start at field 3 (`state`); minflt is field 10, utime 14, stime 15.
    pub fn now() -> ProcSample {
        let stat = fs::read_to_string("/proc/self/stat").expect("read /proc/self/stat");
        let after_comm = &stat[stat.rfind(')').expect("stat has a command name") + 2..];
        let fields: Vec<&str> = after_comm.split_whitespace().collect();
        let field = |n: usize| -> u64 { fields[n - 3].parse().expect("numeric stat field") };
        ProcSample {
            minflt: field(10),
            utime: field(14),
            stime: field(15),
        }
    }

    /// Counters accumulated since `earlier`.
    pub fn since(&self, earlier: &ProcSample) -> ProcSample {
        ProcSample {
            minflt: self.minflt - earlier.minflt,
            utime: self.utime - earlier.utime,
            stime: self.stime - earlier.stime,
        }
    }

    /// The sum of two windows' counters.
    pub fn plus(&self, other: &ProcSample) -> ProcSample {
        ProcSample {
            minflt: self.minflt + other.minflt,
            utime: self.utime + other.utime,
            stime: self.stime + other.stime,
        }
    }

    /// System time as a share of all CPU time in this window (0 when the
    /// window was too short to register a tick).
    pub fn sys_share(&self) -> f64 {
        let total = self.utime + self.stime;
        if total == 0 {
            0.0
        } else {
            self.stime as f64 / total as f64
        }
    }
}

/// The process's peak resident set (`VmHWM`), MiB.
pub fn peak_rss_mb() -> f64 {
    let status = fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM in /proc/self/status");
    kb / 1024.0
}
