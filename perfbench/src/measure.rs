//! Sample statistics, host probes, and the result line.

use std::fmt::Write as _;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// The `q` quantile (0..=1) of `samples`, nearest-rank on a sorted
/// copy; 0 for no samples.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

/// The mean of `samples` with the top and bottom tenth (rounded down)
/// left out; 0 for no samples.
pub fn trimmed_mean(samples: &[f64]) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let cut = sorted.len() / 10;
    let kept = &sorted[cut..sorted.len() - cut];
    ratio(kept.iter().sum(), kept.len() as f64)
}

/// Repeated timings of the same operations. Each operation's figure is
/// the trimmed mean of its repeats. The shared host switches between a
/// fast and a slow state that last seconds to minutes; a mean weighs
/// each state by the time the run spent in it, where a median flips to
/// whichever state held the majority, and the trim keeps a single stall
/// out. Percentiles are then taken across operations.
pub struct Repeats(Vec<Vec<f64>>);

impl Repeats {
    pub fn new(operations: usize) -> Self {
        Repeats(vec![Vec::new(); operations])
    }

    pub fn push(&mut self, operation: usize, ms: f64) {
        self.0[operation].push(ms);
    }

    pub fn samples(&self) -> usize {
        self.0.iter().map(Vec::len).sum()
    }

    /// `(operation, figure)` for every operation timed at least once.
    pub fn figures(&self) -> Vec<(usize, f64)> {
        self.0
            .iter()
            .enumerate()
            .filter(|(_, s)| !s.is_empty())
            .map(|(op, s)| (op, trimmed_mean(s)))
            .collect()
    }

    /// Items per second over the operations timed at least once, each
    /// counted at its figure: `size(op)` summed over the sum of the
    /// figures (in seconds).
    pub fn rate(&self, size: impl Fn(usize) -> f64) -> f64 {
        let (items, ms) = self
            .figures()
            .into_iter()
            .fold((0.0, 0.0), |(n, t), (op, m)| (n + size(op), t + m));
        ratio(items, ms / 1e3)
    }
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// `num / den`, or 0 when nothing was counted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Peak resident memory of this process (VmHWM), in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

fn spin(rounds: u64) -> u64 {
    let mut x = black_box(0x2545_F491_4F6C_DD1D_u64);
    for i in 0..rounds {
        x = x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(i);
        x ^= x >> 29;
    }
    black_box(x)
}

/// Cores the host actually delivers: a fixed spin kernel timed on one
/// thread and then on `threads` threads at once (each doing the same
/// work), `threads × t1 / tN`, median of three trials.
pub fn delivered_parallelism(threads: usize) -> f64 {
    const ROUNDS: u64 = 20_000_000;
    let trials: Vec<f64> = (0..3)
        .map(|_| {
            let t = Instant::now();
            spin(ROUNDS);
            let one = t.elapsed().as_secs_f64();
            let t = Instant::now();
            std::thread::scope(|s| {
                for _ in 0..threads {
                    s.spawn(|| spin(ROUNDS));
                }
            });
            threads as f64 * one / t.elapsed().as_secs_f64()
        })
        .collect();
    median(&trials)
}

/// The reference kernel's time, in ms, on the host the bounds in
/// `BENCHMARK.json` were set on (a shared 2-vCPU Intel Xeon virtual
/// machine). Time metrics are reported at this host speed.
pub const NOMINAL_KERNEL_MS: f64 = 0.35;

/// Host speed, sampled alongside the workload with a fixed reference
/// kernel that shares no code with casekit.
///
/// On a shared 2-vCPU Intel Xeon virtual machine, the same work took up
/// to 1.7 times as long when neighbours were busy, in states that last
/// tens of seconds, so a wall time alone mostly measured the
/// neighbours. The kernel does what the frontend does most, scanning
/// text and hashing words into a table, on buffers made once, so it
/// allocates nothing and sees the same slowdowns. `factor` turns a wall
/// time taken over the same stretch into the time at nominal speed. The
/// kernel's own time is reported as `host.kernel_ms`.
pub struct Calibration {
    text: Vec<u8>,
    table: Vec<u64>,
    samples: Vec<f64>,
    spent: Duration,
}

impl Default for Calibration {
    fn default() -> Self {
        use std::io::Write as _;
        const KEYWORDS: [&str; 6] = [
            "goal",
            "strategy",
            "solution",
            "context",
            "supported_by",
            "formal",
        ];
        let mut text = Vec::with_capacity(1 << 16);
        let mut x = 0x9E37_79B9_7F4A_7C15_u64;
        for i in 0.. {
            if text.len() >= (1 << 16) - 64 {
                break;
            }
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let keyword = KEYWORDS[(x % 6) as usize];
            let _ = writeln!(text, "{keyword} n{} \"p{i} & ~q{}\" ;", x % 997, x % 13);
        }
        Calibration {
            text,
            table: vec![0; 4096],
            samples: Vec::new(),
            spent: Duration::ZERO,
        }
    }
}

impl Calibration {
    fn kernel(&mut self) -> u64 {
        const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
        let mut acc = 0u64;
        for _ in 0..2 {
            let (mut h, mut in_word) = (FNV_OFFSET, false);
            for &b in black_box(&self.text).iter() {
                if b.is_ascii_alphanumeric() || b == b'_' {
                    h = (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3);
                    in_word = true;
                    continue;
                }
                if in_word {
                    let slot = h as usize & 4095;
                    self.table[slot] = self.table[slot].wrapping_add(h >> 7);
                    acc = acc.wrapping_add(self.table[(h >> 20) as usize & 4095]);
                    h = FNV_OFFSET;
                }
                in_word = false;
                if b == b'"' {
                    acc = acc.rotate_left(5);
                }
            }
        }
        black_box(acc)
    }

    /// Times the kernel once.
    pub fn sample(&mut self) {
        let t = Instant::now();
        self.kernel();
        let elapsed = t.elapsed();
        self.samples.push(ms(elapsed));
        self.spent += elapsed;
    }

    /// Wall time spent sampling so far.
    pub fn spent(&self) -> Duration {
        self.spent
    }

    /// Times the kernel `n` times in a row.
    pub fn burst(&mut self, n: usize) {
        for _ in 0..n {
            self.sample();
        }
    }

    /// The kernel's time over the samples taken, in ms.
    pub fn kernel_ms(&self) -> f64 {
        trimmed_mean(&self.samples)
    }

    /// Nominal over measured kernel time: multiply a time taken while
    /// the samples were taken by it, divide a rate by it.
    pub fn factor(&self) -> f64 {
        ratio(NOMINAL_KERNEL_MS, self.kernel_ms())
    }
}

/// Metrics in the order they are added, each with its unit.
#[derive(Default)]
pub struct Metrics(Vec<(String, f64, &'static str)>);

impl Metrics {
    pub fn put(&mut self, name: &str, value: f64, unit: &'static str) {
        let value = if value.is_finite() { value } else { 0.0 };
        self.0.push((name.to_string(), value, unit));
    }

    /// The metrics named in `names`, in that order.
    pub fn select(&self, names: &[&str]) -> Metrics {
        Metrics(
            names
                .iter()
                .map(|name| {
                    self.0
                        .iter()
                        .find(|(n, ..)| n == name)
                        .cloned()
                        .unwrap_or_else(|| panic!("metric {name} was not measured"))
                })
                .collect(),
        )
    }

    /// One human-readable line per metric.
    pub fn table(&self) -> String {
        let mut out = String::new();
        for (name, value, unit) in &self.0 {
            let _ = writeln!(out, "  {name:<32} {value:>14.4} {unit}");
        }
        out
    }

    /// The result line: one JSON object with every metric.
    pub fn result_json(&self, correct: bool, attempted: u64, failed: u64) -> String {
        let body: Vec<String> = self
            .0
            .iter()
            .map(|(name, value, unit)| {
                format!("\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
            body.join(", ")
        )
    }
}

/// Operations attempted and failed over a run: panics, unexpected
/// errors, and outputs that disagree with the reference.
#[derive(Debug, Default, Clone, Copy)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

impl Tally {
    pub fn record(&mut self, ok: bool) {
        self.attempted += 1;
        self.failed += u64::from(!ok);
    }

    pub fn success_ratio(&self) -> f64 {
        1.0 - ratio(self.failed as f64, self.attempted as f64)
    }
}
