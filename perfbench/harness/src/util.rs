//! Seeded streams, sample statistics, digests, peak memory, and the
//! run report every workload fills in.

use std::collections::BTreeMap;
use std::time::Duration;

/// SplitMix64: the benchmark's only source of randomness, so one
/// `--seed` fixes every generated input.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Self(seed ^ 0x9e37_79b9_7f4a_7c15)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

/// Median and quartiles of a sample, computed as Python's
/// `statistics.quantiles(xs, n=4)` (the "exclusive" method) does.
#[derive(Clone, Copy, Debug)]
pub struct Summary {
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    pub n: usize,
}

impl Summary {
    pub fn of(xs: &[f64]) -> Self {
        let mut v: Vec<f64> = xs.to_vec();
        v.sort_by(f64::total_cmp);
        let n = v.len();
        match n {
            0 => Self {
                median: f64::NAN,
                q1: f64::NAN,
                q3: f64::NAN,
                n,
            },
            1 => Self {
                median: v[0],
                q1: v[0],
                q3: v[0],
                n,
            },
            _ => {
                let q = |i: usize| -> f64 {
                    let m = n + 1;
                    let j = (i * m / 4).clamp(1, n - 1);
                    let delta = (i * m) as f64 - (j * 4) as f64;
                    (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
                };
                Self {
                    median: q(2),
                    q1: q(1),
                    q3: q(3),
                    n,
                }
            }
        }
    }

    /// A single value (a ratio over the whole run, or one measurement).
    pub fn one(x: f64) -> Self {
        Self::of(&[x])
    }

    /// The `p`-th percentile by linear interpolation between order
    /// statistics (for tail latencies, where quartiles are too coarse).
    pub fn percentile(xs: &[f64], p: f64) -> f64 {
        let mut v: Vec<f64> = xs.to_vec();
        v.sort_by(f64::total_cmp);
        if v.is_empty() {
            return f64::NAN;
        }
        let pos = p / 100.0 * (v.len() - 1) as f64;
        let lo = pos.floor() as usize;
        let hi = pos.ceil() as usize;
        v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
    }
}

/// Geometric mean of positive samples.
pub fn gmean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    (xs.iter().map(|x| x.ln()).sum::<f64>() / xs.len() as f64).exp()
}

pub fn median(xs: &[f64]) -> f64 {
    Summary::of(xs).median
}

pub fn secs(d: Duration) -> f64 {
    d.as_secs_f64()
}

/// The 128-bit content digest used for simulated results.
pub fn digest(text: &str) -> String {
    rix_dispatch::hash::fnv128_hex(text.as_bytes())
}

/// Peak resident set of a live process (`VmHWM` in `/proc/<pid>/status`),
/// in MiB.
pub fn peak_rss_mb(pid: &str) -> Option<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// The Linux `struct rusage` (all fields are `long` or a pair of them).
#[repr(C)]
struct Rusage {
    utime: [i64; 2],
    stime: [i64; 2],
    maxrss: i64,
    rest: [i64; 13],
}

extern "C" {
    fn getrusage(who: i32, usage: *mut Rusage) -> i32;
}

/// Peak resident set of the largest waited-for child process tree, in
/// MiB (`getrusage(RUSAGE_CHILDREN)`).
pub fn children_peak_rss_mb() -> f64 {
    const RUSAGE_CHILDREN: i32 = -1;
    let mut usage = Rusage {
        utime: [0; 2],
        stime: [0; 2],
        maxrss: 0,
        rest: [0; 13],
    };
    // SAFETY: `usage` is a properly sized, writable `struct rusage`.
    let rc = unsafe { getrusage(RUSAGE_CHILDREN, &mut usage) };
    if rc == 0 {
        usage.maxrss as f64 / 1024.0
    } else {
        f64::NAN
    }
}

/// One run's outcome: checks, end-to-end samples, per-layer values and
/// the digest of every simulated result the run fixed in advance.
#[derive(Debug, Default)]
pub struct Report {
    pub attempted: u64,
    pub failures: Vec<String>,
    pub e2e: BTreeMap<&'static str, Summary>,
    pub layer: BTreeMap<String, f64>,
    pub digest: String,
    /// Median wall time of one measured round (the trace overhead is
    /// the traced rounds' median against the untraced rounds').
    pub round_s: f64,
    /// The host-speed factors applied to the run's times.
    pub speed: Vec<f64>,
}

impl Report {
    /// Counts one correctness check; a failing one is described.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            let msg = what();
            eprintln!("check failed: {msg}");
            self.failures.push(msg);
        }
    }

    pub fn set(&mut self, name: &'static str, s: Summary) {
        self.e2e.insert(name, s);
    }

    pub fn layer(&mut self, name: &str, value: f64) {
        self.layer.insert(name.to_string(), value);
    }
}

/// Latency samples of items that differ widely in size (seconds each,
/// one list per item). A pooled percentile would jump between items as
/// their ranks swap, and one item has too few samples for a tail of its
/// own; so the p50 is the gmean over items of each item's median, and
/// the p90 that gmean times the 90th percentile of every sample over
/// its item's median, pooled.
pub fn per_item_latency_metrics(
    r: &mut Report,
    p50: &'static str,
    p90: &'static str,
    items: &[Vec<f64>],
) {
    let medians: Vec<f64> = items.iter().map(|xs| median(xs)).collect();
    let ratios: Vec<f64> = items
        .iter()
        .zip(&medians)
        .flat_map(|(xs, m)| xs.iter().map(move |x| x / m))
        .collect();
    let typical_ms = gmean(&medians) * 1e3;
    let summary = |ms: f64| Summary {
        median: ms,
        q1: f64::NAN,
        q3: f64::NAN,
        n: ratios.len(),
    };
    r.set(p50, summary(typical_ms));
    r.set(
        p90,
        summary(typical_ms * Summary::percentile(&ratios, 90.0)),
    );
}

/// Latency samples of one phase (seconds each), summarised into the
/// `<prefix>_p50_ms` / `<prefix>_p90_ms` metrics.
pub fn latency_metrics(r: &mut Report, p50: &'static str, p90: &'static str, xs: &[f64]) {
    let ms: Vec<f64> = xs.iter().map(|x| x * 1e3).collect();
    let s = Summary::of(&ms);
    r.set(p50, s);
    r.set(
        p90,
        Summary {
            median: Summary::percentile(&ms, 90.0),
            q1: f64::NAN,
            q3: f64::NAN,
            n: s.n,
        },
    );
}

/// Repeats a set-up step at least `min_reps` times and for at least
/// `min_s` seconds (at most 100 times), returning each repetition's
/// time at the reference speed and the last repetition's product.
pub fn repeat_setup<T>(
    speed: &mut Speed,
    min_reps: usize,
    min_s: f64,
    mut step: impl FnMut() -> Result<T, String>,
) -> Result<(Vec<f64>, T), String> {
    let started = std::time::Instant::now();
    let mut times = Vec::new();
    loop {
        let t = std::time::Instant::now();
        let out = step()?;
        times.push(secs(t.elapsed()) * speed.factor());
        let enough = times.len() >= min_reps && secs(started.elapsed()) >= min_s;
        if enough || times.len() >= 100 {
            return Ok((times, out));
        }
    }
}

/// The calibration kernel's typical time on the reference host (a
/// 2-vCPU Xeon VM), in seconds: the speed every reported time is
/// scaled to.
const KERNEL_REF_S: f64 = 8.5e-4;

/// Calibration probes a factor is the median of.
const PROBE_WINDOW: usize = 5;

/// One run of the calibration kernel: a fixed mix of ordered and hashed
/// map updates, sorting and formatting. Like the simulator it is
/// branchy, allocation-heavy code with a large instruction footprint,
/// so host interference slows both alike; a tight loop over an array
/// tracks the simulator's slowdowns poorly. It is standard-library and
/// benchmark code: no change to the program can speed it up or slow it
/// down.
fn kernel() -> f64 {
    use std::collections::{BTreeMap, HashMap};
    use std::fmt::Write;
    let t = std::time::Instant::now();
    let mut x = 0x2545_f491_4f6c_dd1du64;
    let mut ordered = BTreeMap::new();
    let mut hashed = HashMap::new();
    let mut values = Vec::with_capacity(3000);
    let mut text = String::new();
    for i in 0..3000u64 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        ordered.insert(x % 5000, i);
        *hashed.entry(x % 3000).or_insert(0u64) += i;
        values.push(x % 100_000);
        if i % 8 == 0 {
            text.clear();
            let _ = write!(text, "{x:x}-{i}");
        }
        if i % 3 == 0 {
            ordered.remove(&(x % 4000));
        }
    }
    values.sort_unstable();
    values.dedup();
    std::hint::black_box((ordered.len(), hashed.len(), values.len(), text.len()));
    secs(t.elapsed())
}

/// Host-speed normalisation. The host's speed drifts by tens of
/// percent over seconds to minutes (other tenants share its cores), so
/// a calibration probe runs after every timed interval, and the
/// interval is scaled by the probe's reference time over the median of
/// the last few probe times. A reported time is then what the interval
/// would have taken at the reference speed; the factors are recorded
/// with the run (`host_speed`), so raw times can be recovered. Work
/// spread over both cores (worker processes, a client and a server)
/// probes both at once.
pub struct Speed {
    threads: usize,
    recent: std::collections::VecDeque<f64>,
    /// Every factor handed out, for the run record.
    pub factors: Vec<f64>,
}

impl Speed {
    /// Probes with the kernel on `threads` threads at once.
    pub fn new(threads: usize) -> Self {
        let mut s = Self {
            threads,
            recent: Default::default(),
            factors: Vec::new(),
        };
        for _ in 0..PROBE_WINDOW {
            s.probe();
        }
        s
    }

    /// One probe: the mean kernel time over the threads.
    fn probe(&mut self) {
        if self.recent.len() == PROBE_WINDOW {
            self.recent.pop_front();
        }
        let total: f64 = std::thread::scope(|scope| {
            let runs: Vec<_> = (0..self.threads).map(|_| scope.spawn(kernel)).collect();
            runs.into_iter()
                .map(|h| h.join().expect("the kernel never panics"))
                .sum()
        });
        self.recent.push_back(total / self.threads as f64);
    }

    /// The scale factor for the interval that just ended.
    pub fn factor(&mut self) -> f64 {
        self.probe();
        let recent: Vec<f64> = self.recent.iter().copied().collect();
        let f = KERNEL_REF_S / median(&recent);
        self.factors.push(f);
        f
    }
}
