//! Shared pieces: workload shapes, the rules pack, digests, peak RSS,
//! and the span ledger the traced runs fill.

use haystack_core::pack::SignaturePack;
use haystack_core::rules::RuleSet;
use std::collections::BTreeMap;
use std::net::Ipv4Addr;
use std::path::Path;
use std::time::{Duration, Instant};

/// Which path of the program a workload drives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Route {
    /// `DetectorPool`: in-process shard threads.
    Thread,
    /// `ProcPool`: `haystack shard-worker` child processes.
    Proc,
    /// The `haystack serve` daemon over loopback TCP.
    Serve,
}

/// A workload's fixed traffic shape. One repeat streams `hours`
/// simulated hours of `records_per_hour` records each.
#[derive(Debug, Clone, Copy)]
pub struct Shape {
    pub route: Route,
    pub lines: u32,
    pub hours: u32,
    pub records_per_hour: u64,
    pub hit_ppm: u32,
    /// Serve's open-loop query rate, per second. Soak workloads query
    /// in bursts instead (`soak::HOUR_QUERIES` after each checkpoint).
    pub query_rate: f64,
}

/// Hours of a workload's traffic the traced run replays through the
/// layers its own route does not run (the other shard backend, or the
/// serve-side decode chain for a soak workload).
pub const SIDE_HOURS: u32 = 2;

/// Queries cycle over this many known (detected) lines.
pub const QUERY_LINES: usize = 64;

impl Shape {
    pub fn of(workload: &str, tiny: bool) -> Option<Shape> {
        let (route, records_per_hour, hit_ppm, query_rate) = match workload {
            "soak-miss99" => (Route::Thread, 1_500_000, 10_000, 0.0),
            "soak-hit10" => (Route::Thread, 600_000, 100_000, 0.0),
            "soak-proc" => (Route::Proc, 400_000, 10_000, 0.0),
            "serve-hit10" => (Route::Serve, 200_000, 100_000, 20.0),
            _ => return None,
        };
        Some(if tiny {
            Shape {
                route,
                lines: 10_000,
                hours: 4,
                records_per_hour: 5_000,
                hit_ppm,
                query_rate,
            }
        } else {
            Shape {
                route,
                lines: 1_000_000,
                hours: 24,
                records_per_hour,
                hit_ppm,
                query_rate,
            }
        })
    }
}

/// Shard workers: one per available CPU.
pub fn workers() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

pub fn load_pack(dir: &Path) -> Result<SignaturePack, String> {
    let bytes = std::fs::read(dir.join("rules.pack")).map_err(|e| format!("rules.pack: {e}"))?;
    SignaturePack::load(&bytes).map_err(|e| format!("rules.pack: {e}"))
}

/// Every (service IP, port) the rules can match, sorted and deduplicated:
/// the soak stream's hit targets.
pub fn hit_targets(rules: &RuleSet) -> Vec<(Ipv4Addr, u16)> {
    let mut targets: Vec<(Ipv4Addr, u16)> = rules
        .rules
        .iter()
        .flat_map(|r| &r.domains)
        .flat_map(|d| {
            d.ips
                .iter()
                .flat_map(|&ip| d.ports.iter().map(move |&p| (ip, p)))
        })
        .collect();
    targets.sort_unstable();
    targets.dedup();
    targets
}

pub fn class_names(rules: &RuleSet) -> Vec<String> {
    rules
        .rules
        .iter()
        .map(|r| rules.class_name(r.class).to_string())
        .collect()
}

/// FNV-1a over `class \t line,line,…\n` rows: the digest of the final
/// detected lines per class. `lines` must be sorted.
pub fn digest(rows: &[(String, Vec<u64>)]) -> String {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    };
    for (class, lines) in rows {
        eat(class.as_bytes());
        eat(b"\t");
        for l in lines {
            eat(&l.to_le_bytes());
        }
        eat(b"\n");
    }
    format!("{h:016x}")
}

/// `VmHWM` in KiB of `pid` (or this process), 0 if unreadable.
pub fn peak_rss_kib(pid: Option<u32>) -> u64 {
    let path = match pid {
        Some(p) => format!("/proc/{p}/status"),
        None => "/proc/self/status".to_string(),
    };
    std::fs::read_to_string(path)
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))?
                .split_whitespace()
                .nth(1)?
                .parse()
                .ok()
        })
        .unwrap_or(0)
}

/// Open-loop query arrivals at a mean `rate` per second. Each gap is
/// uniform in [0.5, 1.5] × the mean, so arrivals never phase-lock with
/// a poll interval in the program and never come in bursts. `schedule`
/// picks one of many seeded schedules: every repeat of a run gets its
/// own, and a run still repeats exactly for its seed.
pub struct Arrivals {
    state: u64,
    mean_s: f64,
}

impl Arrivals {
    pub fn new(seed: u64, schedule: u64, rate: f64) -> Arrivals {
        let state = seed ^ schedule.wrapping_mul(0xD1B5_4A32_D192_ED03) ^ 0xA076_1D64_78BD_642F;
        Arrivals {
            state,
            mean_s: 1.0 / rate,
        }
    }

    /// The gap to the next arrival.
    pub fn next_gap(&mut self) -> Duration {
        // splitmix64 step; the top 53 bits as a uniform in [0, 1).
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        let u = (z >> 11) as f64 / (1u64 << 53) as f64;
        Duration::from_secs_f64(self.mean_s * (0.5 + u))
    }
}

/// Host CPU ticks `(stolen, total)` from the first line of `/proc/stat`.
/// Steal is time the hypervisor gave this machine's CPUs to someone
/// else; the benchmark records its share over each timed window.
pub fn cpu_ticks() -> (u64, u64) {
    let text = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let ticks: Vec<u64> = text
        .lines()
        .next()
        .unwrap_or("")
        .split_whitespace()
        .skip(1)
        .filter_map(|t| t.parse().ok())
        .collect();
    (ticks.get(7).copied().unwrap_or(0), ticks.iter().sum())
}

/// Share of CPU time stolen between two [`cpu_ticks`] readings.
pub fn steal_frac(before: (u64, u64), after: (u64, u64)) -> f64 {
    (after.0 - before.0) as f64 / (after.1 - before.1).max(1) as f64
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Nearest-rank percentile of `v` (`q` in 0..=1); 0 for an empty slice.
pub fn percentile(v: &[f64], q: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let rank = ((q * s.len() as f64).ceil() as usize).clamp(1, s.len());
    s[rank - 1]
}

/// Self time per stage, accumulated from spans the benchmark records
/// around calls into the program. Stages never nest, so a span's
/// duration is its self time.
#[derive(Debug, Default)]
pub struct Ledger {
    stages: BTreeMap<&'static str, Duration>,
}

impl Ledger {
    /// Time `f` as stage `name` when `on`; run it untimed otherwise.
    #[inline]
    pub fn span<T>(&mut self, on: bool, name: &'static str, f: impl FnOnce() -> T) -> T {
        if !on {
            return f();
        }
        let t = Instant::now();
        let out = f();
        *self.stages.entry(name).or_default() += t.elapsed();
        out
    }

    pub fn get(&self, name: &str) -> Duration {
        self.stages.get(name).copied().unwrap_or_default()
    }

    pub fn total(&self) -> Duration {
        self.stages.values().sum()
    }

    pub fn to_json(&self) -> serde_json::Value {
        let m: serde_json::Map = self
            .stages
            .iter()
            .map(|(k, v)| (k.to_string(), serde_json::json!(v.as_secs_f64())))
            .collect();
        serde_json::Value::Object(m)
    }
}

/// The scheduler calls the query bursts need; `std` already links the C
/// library that provides them.
mod sys {
    extern "C" {
        pub fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
        pub fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
        pub fn sched_getcpu() -> i32;
    }
}

/// A CPU set as `sched_setaffinity` takes it (up to 1024 CPUs).
pub type CpuMask = [u64; 16];

fn tasks(pid: Option<u32>) -> Vec<i32> {
    let dir = match pid {
        Some(p) => format!("/proc/{p}/task"),
        None => "/proc/self/task".to_string(),
    };
    std::fs::read_dir(dir)
        .map(|d| {
            d.filter_map(|e| e.ok()?.file_name().to_str()?.parse().ok())
                .collect()
        })
        .unwrap_or_default()
}

/// This process's CPU set, to restore after [`pin`].
pub fn affinity() -> Result<CpuMask, String> {
    let mut m = [0u64; 16];
    // SAFETY: `m` is a writable buffer of the size passed.
    let r = unsafe { sys::sched_getaffinity(0, std::mem::size_of::<CpuMask>(), m.as_mut_ptr()) };
    if r < 0 {
        return Err(format!(
            "sched_getaffinity: {}",
            std::io::Error::last_os_error()
        ));
    }
    Ok(m)
}

/// Set every thread of this process and of `children` to `mask`; with
/// `None`, to the CPU the calling thread runs on now.
pub fn pin(children: &[u32], mask: Option<CpuMask>) -> Result<(), String> {
    let mask = mask.unwrap_or_else(|| {
        // SAFETY: no arguments; returns the current CPU or -1.
        let cpu = unsafe { sys::sched_getcpu() }.max(0) as usize;
        let mut m = [0u64; 16];
        m[cpu / 64] |= 1 << (cpu % 64);
        m
    });
    let all = tasks(None)
        .into_iter()
        .chain(children.iter().flat_map(|&p| tasks(Some(p))));
    for tid in all {
        // SAFETY: `mask` is a readable buffer of the size passed.
        let r =
            unsafe { sys::sched_setaffinity(tid, std::mem::size_of::<CpuMask>(), mask.as_ptr()) };
        if r != 0 {
            return Err(format!(
                "sched_setaffinity({tid}): {}",
                std::io::Error::last_os_error()
            ));
        }
    }
    Ok(())
}
