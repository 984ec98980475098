//! Host-side facts the benchmark needs: process hygiene, memory, CPU
//! time, and the order statistics it reports.

use std::hint::black_box;
use std::time::{Duration, Instant};

/// Refuses conditions that would silently change what is measured.
pub fn check_hygiene() -> Result<(), String> {
    // `run_compiled_observed` reads this variable and switches to the
    // sharded multi-threaded stepper, which would measure another engine.
    if std::env::var_os("CLP_SIM_THREADS").is_some() {
        return Err("CLP_SIM_THREADS is set; unset it to measure the default stepper".to_string());
    }
    let cpus = std::thread::available_parallelism().map_or(1, usize::from);
    let threads = threads()?;
    if threads > cpus {
        return Err(format!(
            "process runs {threads} threads on {cpus} CPUs at start-up"
        ));
    }
    Ok(())
}

fn status_field(key: &str) -> Result<u64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix(key))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|v| v.parse().ok())
        .ok_or_else(|| format!("/proc/self/status has no `{key}`"))
}

/// Threads of this process right now.
fn threads() -> Result<usize, String> {
    status_field("Threads:").map(|n| n as usize)
}

/// Peak resident set size of this process so far, less the reference
/// kernel's table, in MiB.
pub fn peak_rss_mb() -> f64 {
    status_field("VmHWM:").map_or(f64::NAN, |kb| {
        (kb * 1024).saturating_sub(Reference::BYTES as u64) as f64 / (1024.0 * 1024.0)
    })
}

/// User plus system CPU time of the whole process (every thread, joined
/// ones included), in seconds. `/proc` reports it in USER_HZ, which the
/// kernel ABI fixes at 100 per second.
pub fn cpu_seconds() -> f64 {
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else {
        return f64::NAN;
    };
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the whole line.
    let after = stat.rsplit_once(')').map_or("", |(_, r)| r);
    let f: Vec<&str> = after.split_whitespace().collect();
    let tick = |i: usize| f.get(i).and_then(|v| v.parse::<u64>().ok());
    match (tick(11), tick(12)) {
        (Some(u), Some(s)) => (u + s) as f64 / 100.0,
        _ => f64::NAN,
    }
}

/// A fixed memory-bound reference kernel, run between the measured calls
/// to track how fast the host's memory system is at that moment.
///
/// The simulator's host time drifts by ±20% over tens of seconds on a
/// shared host, with no run-queue wait. Sampled after every cell, this
/// kernel's time follows that drift (correlation 0.8 to 0.9 with pass
/// time), so host times are reported scaled to a host on which one
/// sample takes `Reference::NOMINAL_NS`. The kernel is part of the
/// benchmark, not of the repository.
///
/// A sample is a chase of dependent loads through one random cycle over
/// the table, so its time is load latency alone and does not depend on
/// how the compiler lays out the loop. Before the timed chase, an untimed
/// read of the table, an untimed chase and a second read put the caches
/// and TLB in the same state whatever the preceding call did: with a
/// single read, a sample right after a cell took twice as long as one
/// right after another sample.
pub struct Reference {
    next: Vec<u32>,
    at: u32,
}

impl Reference {
    /// Entries of the table: 8 MiB, four times a core's 2 MiB L2 on the
    /// tuning host, so most loads go to the shared L3 or to memory.
    const ENTRIES: usize = 1 << 21;
    /// Dependent loads per chase.
    const STEPS: u32 = 5_000;
    /// Size of the table, which the reported peak memory leaves out.
    const BYTES: usize = Self::ENTRIES * std::mem::size_of::<u32>();
    /// The time of one sample on the 2-vCPU host the benchmark was tuned
    /// on, in ns: a typical value, so scaled times read like its host times.
    const NOMINAL_NS: f64 = 250_000.0;

    pub fn new() -> Self {
        // Sattolo's shuffle: a uniformly random permutation that is a
        // single cycle through every entry, from a fixed xorshift stream.
        let mut next: Vec<u32> = (0..Self::ENTRIES as u32).collect();
        let mut x: u64 = 0x9e37_79b9_7f4a_7c15;
        for i in (1..next.len()).rev() {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            next.swap(i, (x % i as u64) as usize);
        }
        Reference { next, at: 0 }
    }

    fn read(&self) {
        black_box(self.next.iter().fold(0u32, |a, &v| a ^ v));
    }

    fn chase(&mut self) {
        let mut at = self.at;
        for _ in 0..Self::STEPS {
            at = self.next[at as usize];
        }
        self.at = black_box(at);
    }

    /// Runs one sample; returns the host time of its timed chase in ns.
    pub fn sample(&mut self) -> u64 {
        self.read();
        self.chase();
        self.read();
        let t = Instant::now();
        self.chase();
        ns_since(t)
    }
}

/// Host ns scaled to the nominal reference speed, given the reference
/// samples (`samples` of them, `sample_ns` in total) taken alongside.
pub fn scaled_ns(ns: u64, sample_ns: u64, samples: u64) -> f64 {
    ns as f64 * Reference::NOMINAL_NS * samples as f64 / sample_ns as f64
}

/// The set-up times of one run. The first set-up makes the workload's
/// inputs; the workload repeats it between its measured calls for the
/// rest of the run, so that `setup_s` is a median over the whole run. A
/// median over set-ups made back to back at the start would follow the
/// host's drift during that one second: over ten runs it spread by up to
/// 0.33 of its median.
#[derive(Default)]
pub struct SetupTimes {
    /// Seconds of each set-up, scaled by the reference sample taken
    /// right after it.
    scaled_s: Vec<f64>,
    unscaled_s: Vec<f64>,
}

impl SetupTimes {
    /// Runs `setup` once, timed, then one reference sample.
    pub fn time<T>(
        &mut self,
        reference: &mut Reference,
        setup: impl FnOnce() -> Result<T, String>,
    ) -> Result<T, String> {
        let t = Instant::now();
        let r = black_box(setup()?);
        let ns = ns_since(t);
        self.unscaled_s.push(ns as f64 / 1e9);
        self.scaled_s
            .push(scaled_ns(ns, reference.sample(), 1) / 1e9);
        Ok(r)
    }

    /// Median scaled set-up time in seconds: the reported `setup_s`.
    pub fn median_s(&self) -> f64 {
        median(&self.scaled_s)
    }

    /// One line for people: how many set-ups, unscaled and scaled median.
    pub fn summary(&self) -> String {
        format!(
            "{} set-ups, median {:.6} s unscaled, {:.6} s scaled",
            self.scaled_s.len(),
            median(&self.unscaled_s),
            self.median_s()
        )
    }
}

/// Whether a run that started at `start` and has finished `done` whole
/// rounds (passes or drain rounds) starts another: always the first, then
/// only while one more round of the mean length so far still ends within
/// `budget`.
pub fn another_round(start: Instant, done: usize, budget: Duration) -> bool {
    done == 0 || start.elapsed() * (done as u32 + 1) / done as u32 <= budget
}

/// Nanoseconds since `t`.
pub fn ns_since(t: Instant) -> u64 {
    t.elapsed().as_nanos() as u64
}

/// Median of a non-empty sample set.
pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// Linear-interpolated quantile of a non-empty sample set.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    if v.is_empty() {
        return f64::NAN;
    }
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// Deterministic Fisher-Yates shuffle from a seeded stream.
pub fn shuffle<T>(items: &mut [T], prng: &mut clp_sim::fault::Prng) {
    for i in (1..items.len()).rev() {
        let j = prng.next_below(i as u64 + 1) as usize;
        items.swap(i, j);
    }
}
