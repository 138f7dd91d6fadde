//! Measurement plumbing shared by every workload: wall/CPU/RSS readers,
//! order statistics, the driver-overhead stopwatch, and the per-run
//! [`Outcome`] each workload hands back to the runner.

use std::collections::BTreeMap;
use std::time::Instant;

/// Nanoseconds of CPU this process has consumed (user + system).
///
/// `/proc/self/schedstat` has nanosecond resolution; `/proc/self/stat`
/// (10 ms ticks) is the fallback on kernels without scheduler statistics.
pub fn cpu_ns() -> u64 {
    if let Ok(s) = std::fs::read_to_string("/proc/self/schedstat") {
        if let Some(ns) = s.split_whitespace().next().and_then(|f| f.parse().ok()) {
            return ns;
        }
    }
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // Fields after the parenthesised command name; utime and stime are the
    // 14th and 15th fields overall, i.e. the 12th and 13th after ") ".
    let rest = stat.rsplit(") ").next().unwrap_or("");
    let mut fields = rest.split_whitespace().skip(11);
    let utime: u64 = fields.next().and_then(|f| f.parse().ok()).unwrap_or(0);
    let stime: u64 = fields.next().and_then(|f| f.parse().ok()).unwrap_or(0);
    (utime + stime) * 10_000_000
}

/// Peak resident set size (`VmHWM`) of this process in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Resets the kernel's RSS high-water mark so the next [`peak_rss_mb`] is
/// the coming workload's own (used when several workloads share a process).
pub fn reset_peak_rss() {
    // Not every kernel allows it; a failed reset only means the reading is
    // the process-wide peak, which the sequential-invocation mode avoids.
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// Median of `values` (mean of the two middle elements for even counts).
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Linear-interpolated quantile `q ∈ [0, 1]` of `values`; 0 when empty.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// Arithmetic mean; 0 when empty.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// Deterministic 64-bit mix (splitmix64 finalizer): every input a workload
/// draws beyond what the crates' own generators produce comes from the
/// `--seed` through this.
pub fn mix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Cost of one `Instant::now()` in nanoseconds, calibrated once per run so
/// the clock reads the driver itself makes can be charged to it.
pub fn clock_cost_ns() -> f64 {
    let n = 200_000u32;
    let t0 = Instant::now();
    let mut last = t0;
    for _ in 0..n {
        last = std::hint::black_box(Instant::now());
    }
    last.duration_since(t0).as_nanos() as f64 / f64::from(n)
}

/// The benchmark's own bookkeeping inside a timed region: completion
/// predicates, per-op clock reads, counter snapshots. Reported as
/// `driver.overhead_share`; the run fails above 5 %.
#[derive(Debug, Default, Clone, Copy)]
pub struct Driver {
    /// Time spent in explicitly timed bookkeeping sections.
    pub book_ns: u64,
    /// Clock reads made on behalf of the measurement (each costs
    /// [`clock_cost_ns`]).
    pub clock_reads: u64,
}

impl Driver {
    /// Runs `f` as driver bookkeeping, charging its wall time.
    pub fn book<T>(&mut self, f: impl FnOnce() -> T) -> T {
        let t0 = Instant::now();
        let out = f();
        self.book_ns += t0.elapsed().as_nanos() as u64;
        self.clock_reads += 2;
        out
    }

    /// Share of `timed_ns` the driver consumed.
    pub fn share(&self, timed_ns: u64, clock_ns: f64) -> f64 {
        if timed_ns == 0 {
            return 0.0;
        }
        (self.book_ns as f64 + self.clock_reads as f64 * clock_ns) / timed_ns as f64
    }
}

/// One timed slice of a pass: `ops` operations and `msgs` messages took
/// `wall_ns` of wall clock and `cpu_ns` of process CPU. Rates are reported
/// as the median over batches, which keeps a noisy stretch of the run out
/// of the headline number.
#[derive(Debug, Clone, Copy)]
pub struct Batch {
    pub ops: u64,
    pub msgs: u64,
    pub wall_ns: u64,
    pub cpu_ns: u64,
}

/// Everything one pass over a workload measured.
#[derive(Debug, Default)]
pub struct Pass {
    pub batches: Vec<Batch>,
    /// Per-op wall times in nanoseconds (a failed op counts as its deadline).
    pub op_wall_ns: Vec<f64>,
    /// When set, `op_wall_p50_us` is this instead of the plain median of
    /// `op_wall_ns` (`sim_multicast` takes the median over stream pairs of
    /// the mean of the two protocols' medians).
    pub op_wall_p50_ns: Option<f64>,
    pub attempted: u64,
    pub failed: u64,
    /// Sum and count behind `path_len_mean`.
    pub hops_sum: f64,
    pub hops_count: f64,
    pub driver: Driver,
    /// `VmHWM` read when the pass had done a fixed number of ops (see
    /// [`Pass::checkpoint_rss`]).
    pub rss_checkpoint_mb: Option<f64>,
    /// Quantities that must repeat bit for bit for the same seed and op
    /// count: virtual-time metrics, `SimStats`, `WireCounters`.
    pub exact: BTreeMap<&'static str, String>,
    /// Per-layer values this pass produced, by metric name.
    pub layer: BTreeMap<&'static str, f64>,
}

impl Pass {
    pub fn ops(&self) -> u64 {
        self.batches.iter().map(|b| b.ops).sum()
    }

    pub fn msgs(&self) -> u64 {
        self.batches.iter().map(|b| b.msgs).sum()
    }

    pub fn wall_ns(&self) -> u64 {
        self.batches.iter().map(|b| b.wall_ns).sum()
    }

    fn median_over_batches(&self, of: impl Fn(&Batch) -> f64) -> f64 {
        let values: Vec<f64> = self
            .batches
            .iter()
            .filter(|b| b.wall_ns > 0 && b.ops > 0)
            .map(of)
            .collect();
        median(&values)
    }

    pub fn ops_per_s(&self) -> f64 {
        self.median_over_batches(|b| b.ops as f64 * 1e9 / b.wall_ns as f64)
    }

    pub fn msgs_per_s(&self) -> f64 {
        self.median_over_batches(|b| b.msgs as f64 * 1e9 / b.wall_ns as f64)
    }

    pub fn msgs_per_op(&self) -> f64 {
        self.msgs() as f64 / self.ops().max(1) as f64
    }

    pub fn op_wall_p50_us(&self) -> f64 {
        self.op_wall_p50_ns
            .unwrap_or_else(|| median(&self.op_wall_ns))
            / 1e3
    }

    pub fn op_wall_p99_us(&self) -> f64 {
        quantile(&self.op_wall_ns, 0.99) / 1e3
    }

    pub fn cpu_us_per_op(&self) -> f64 {
        self.median_over_batches(|b| b.cpu_ns as f64 / 1e3 / b.ops as f64)
    }

    pub fn path_len_mean(&self) -> f64 {
        if self.hops_count > 0.0 {
            self.hops_sum / self.hops_count
        } else {
            0.0
        }
    }

    /// Reads the RSS high-water mark once, at the first call made with at
    /// least `at_ops` ops done. State retained per op (payload stores, dead
    /// actors) grows with the op count, and a time-boxed pass does more ops
    /// on a faster program — so reading the peak at the end would report a
    /// speed-up as a memory regression. The checkpoint is set-up plus a
    /// fixed amount of work.
    pub fn checkpoint_rss(&mut self, at_ops: u64) {
        if self.rss_checkpoint_mb.is_none() && self.attempted >= at_ops {
            self.rss_checkpoint_mb = Some(peak_rss_mb());
        }
    }

    /// `peak_rss_mb`: the checkpoint reading, or the current peak for a
    /// pass too short to reach it.
    pub fn peak_rss_mb(&self) -> f64 {
        self.rss_checkpoint_mb.unwrap_or_else(peak_rss_mb)
    }

    pub fn set_exact(&mut self, key: &'static str, value: impl std::fmt::Debug) {
        self.exact.insert(key, format!("{value:?}"));
    }
}

/// Failed output checks, collected instead of panicking so one run reports
/// every problem it found.
#[derive(Debug, Default)]
pub struct Checks {
    pub failures: Vec<String>,
}

impl Checks {
    pub fn require(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.failures.push(what());
        }
    }

    pub fn ok(&self) -> bool {
        self.failures.is_empty()
    }
}

/// A monotonically advancing deadline for time-boxed passes.
#[derive(Debug, Clone, Copy)]
pub struct TimeBox {
    start: Instant,
    budget: std::time::Duration,
}

impl TimeBox {
    pub fn new(seconds: f64) -> Self {
        TimeBox {
            start: Instant::now(),
            budget: std::time::Duration::from_secs_f64(seconds.max(0.0)),
        }
    }

    pub fn expired(&self) -> bool {
        self.start.elapsed() >= self.budget
    }
}

/// How many repetitions a pass runs: until the clock says stop (the
/// end-to-end pass), or exactly as many as the pass it replays did.
#[derive(Debug, Clone, Copy)]
pub enum Reps {
    For(f64),
    Exactly(u64),
}

/// Tracks progress against a [`Reps`] budget.
#[derive(Debug)]
pub struct RepBudget {
    reps: Reps,
    clock: TimeBox,
    done: u64,
}

impl RepBudget {
    pub fn new(reps: Reps) -> Self {
        let seconds = match reps {
            Reps::For(s) => s,
            Reps::Exactly(_) => 0.0,
        };
        RepBudget {
            reps,
            clock: TimeBox::new(seconds),
            done: 0,
        }
    }

    /// Whether another repetition should start. At least one always runs.
    pub fn more(&self) -> bool {
        match self.reps {
            Reps::For(_) => self.done == 0 || !self.clock.expired(),
            Reps::Exactly(n) => self.done < n,
        }
    }

    pub fn tick(&mut self) {
        self.done += 1;
    }

    pub fn done(&self) -> u64 {
        self.done
    }
}

/// What the command line asked for.
#[derive(Debug, Clone, Copy)]
pub struct Config {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

/// The seed `BASELINE.md` and the pinned output values were taken with.
pub const DEFAULT_SEED: u64 = 1;

/// Share of `--seconds` the untraced reference pass of a `--trace 1` run
/// measures for; the traced pass then replays exactly as many operations.
pub const REFERENCE_SHARE: f64 = 0.4;

/// What one workload run produced.
#[derive(Default)]
pub struct Outcome {
    /// Wall seconds of each complete set-up (end-to-end mode repeats it).
    pub setup_s: Vec<f64>,
    /// The untraced pass: the end-to-end numbers, or the traced pass's
    /// reference in `--trace 1` mode.
    pub pass: Pass,
    /// The traced replay of `pass` (`--trace 1` only).
    pub traced: Option<Pass>,
    pub checks: Checks,
    /// Spans of the traced pass.
    pub log: Option<crate::spans::Log>,
}

impl Outcome {
    /// The traced pass must reproduce the reference pass bit for bit in
    /// everything that does not depend on the wall clock — which proves
    /// both that the run is deterministic and that tracing does not
    /// perturb it.
    pub fn require_identical_passes(&mut self) {
        let Some(traced) = &self.traced else {
            return;
        };
        for (key, want) in &self.pass.exact {
            let got = traced.exact.get(key);
            self.checks.require(got == Some(want), || {
                format!("traced pass diverged on {key}: reference {want}, traced {got:?}")
            });
        }
        self.checks
            .require(traced.exact.len() == self.pass.exact.len(), || {
                "traced and reference passes recorded different exact keys".into()
            });
    }
}
