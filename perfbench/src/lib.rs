//! The LITEWORP reproduction's benchmark: three workloads, each measured
//! end to end with tracing off, plus a traced run that splits one run
//! into per-layer rows by timing calls into the public functions of
//! `netsim`, `routing`, `core`, `attacks`, `runner` and `served` from
//! outside. See `README.md` beside this crate.

pub mod report;
pub mod served;
pub mod sim;
pub mod speed;
pub mod stats;
pub mod trace;

use report::Report;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// The workloads, by the names `BENCHMARK.json` uses.
pub const WORKLOADS: [&str; 3] = ["paper_batch", "scale_100k", "served_mix"];

/// Seeds select one of this many input classes; pinned digests exist
/// for every class.
pub const SEED_CLASSES: u64 = 16;

/// Settings of one benchmark run.
#[derive(Debug, Clone)]
pub struct Ctx {
    /// Workload seed: drives the served request mix and the sim seed base.
    pub seed: u64,
    /// Measure for about this long (at least one iteration runs).
    pub seconds: f64,
    /// Traced run: emit the per-layer rows.
    pub trace: bool,
    /// Reduced input sizes (the benchmark's own tests); skips the pins.
    pub reduced: bool,
    /// Scratch root for caches, journals and daemon state.
    pub tmp: PathBuf,
    /// The built `liteworp-served` binary (the front probe's workers).
    pub served_bin: Option<PathBuf>,
}

impl Ctx {
    /// The input class this run's seed selects.
    pub fn class(&self) -> u64 {
        self.seed % SEED_CLASSES
    }

    /// Runner and daemon pool threads: the core count.
    pub fn jobs(&self) -> usize {
        std::thread::available_parallelism().map_or(1, |n| n.get())
    }
}

/// A fresh directory under the run's scratch root, removed on drop.
pub struct TempDir(PathBuf);

impl TempDir {
    /// Creates `<root>/<prefix>-<pid>-<n>`.
    pub fn new(root: &Path, prefix: &str) -> TempDir {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        let path = root.join(format!("{prefix}-{}-{n}", std::process::id()));
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path).expect("create scratch directory");
        TempDir(path)
    }

    /// The directory.
    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Runs one workload and returns its report (metrics and checks).
pub fn run_workload(name: &str, ctx: &Ctx) -> Result<Report, String> {
    let mut rep = Report::default();
    match name {
        "paper_batch" | "scale_100k" => sim::run(ctx, name, &mut rep),
        "served_mix" => served::run(ctx, &mut rep),
        other => return Err(format!("unknown workload {other:?} (known: {WORKLOADS:?})")),
    }
    Ok(rep)
}

/// Paces a run's iterations: at least one, then another only while one
/// as long as the longest so far still fits in the measuring time. It
/// brackets every iteration with host-speed samples (see [`speed`]) and
/// records each iteration's peak resident memory: the process's
/// `VmHWM`, reset as the iteration starts, and how far it rose above the
/// resident size the iteration started from.
pub struct Pace {
    start: std::time::Instant,
    last: std::time::Instant,
    longest: f64,
    done: usize,
    threads: usize,
    /// Resident size as the first iteration starts, MB.
    first_rss: f64,
    /// Resident size as the current iteration started, MB.
    last_rss: f64,
    /// Each iteration's `VmHWM`, MB.
    peaks: Vec<f64>,
    /// Each iteration's `VmHWM` less its starting resident size, MB.
    growth: Vec<f64>,
    /// Host-speed samples on `threads` threads, one per boundary.
    parallel_refs: Vec<f64>,
    /// Host-speed samples on one thread, one per boundary.
    serial_refs: Vec<f64>,
}

impl Pace {
    /// Starts the clock; parallel host-speed samples run on `ctx.jobs()`
    /// threads, as many as the workloads' pools use.
    pub fn new(ctx: &Ctx) -> Pace {
        let now = std::time::Instant::now();
        Pace {
            start: now,
            last: now,
            longest: 0.0,
            done: 0,
            threads: ctx.jobs(),
            first_rss: 0.0,
            last_rss: 0.0,
            peaks: Vec::new(),
            growth: Vec::new(),
            parallel_refs: Vec::new(),
            serial_refs: Vec::new(),
        }
    }

    /// Whether to run another iteration.
    pub fn next(&mut self, ctx: &Ctx) -> bool {
        if self.done > 0 {
            let peak = stats::peak_rss_mb();
            self.peaks.push(peak);
            self.growth.push(peak - self.last_rss);
        }
        self.parallel_refs.push(speed::sample(self.threads));
        self.serial_refs.push(speed::sample(1));
        let now = std::time::Instant::now();
        if self.done > 0 {
            self.longest = self.longest.max((now - self.last).as_secs_f64());
        }
        self.last = now;
        let go = self.done == 0 || (now - self.start).as_secs_f64() + self.longest <= ctx.seconds;
        self.done += usize::from(go);
        if go {
            stats::reset_peak_rss();
            self.last_rss = stats::rss_mb();
            if self.done == 1 {
                self.first_rss = self.last_rss;
            }
        }
        go
    }

    /// Each finished iteration's speed factor for work on `threads`
    /// threads (serial or parallel): the reference time over the mean of
    /// the samples that bracket the iteration.
    fn factors(&self, serial: bool) -> Vec<f64> {
        let (refs, reference) = if serial {
            (&self.serial_refs, speed::SERIAL_REFERENCE_S)
        } else {
            (&self.parallel_refs, speed::PARALLEL_REFERENCE_S)
        };
        refs.windows(2)
            .map(|w| reference / ((w[0] + w[1]) / 2.0))
            .collect()
    }

    /// Records `peak_rss_mb` and, in the table, the median iteration's
    /// `VmHWM` and the median host-speed samples.
    ///
    /// `peak_rss_mb` is the resident size the first iteration started
    /// from plus the median iteration's rise to its peak. Each
    /// iteration's own `VmHWM` also carries what earlier iterations left
    /// resident and `malloc_trim` did not return, which varied by 3–14 MB
    /// from one `paper_batch` iteration to the next, against a rise of
    /// 11.4 ± 0.5 MB.
    pub fn report(&self, rep: &mut Report) {
        let growth = stats::median(&self.growth).unwrap_or(f64::NAN);
        rep.set_n(
            "peak_rss_mb",
            self.first_rss + growth,
            "MB",
            Some(self.growth.len()),
        );
        rep.set_median("peak_rss_mb.hwm", &self.peaks, "MB");
        rep.set_median("host.parallel_ref_s", &self.parallel_refs, "s");
        rep.set_median("host.serial_ref_s", &self.serial_refs, "s");
    }

    /// Records the median of `t` at the reference speed as `name`, and
    /// the raw median as `<name>.raw`.
    pub fn report_time(&self, rep: &mut Report, name: &str, t: &Timings, unit: &str) {
        self.report_scaled(rep, name, t, unit, 1.0);
    }

    /// Like [`Pace::report_time`] for a rate: divided by the factor.
    pub fn report_rate(&self, rep: &mut Report, name: &str, t: &Timings, unit: &str) {
        self.report_scaled(rep, name, t, unit, -1.0);
    }

    fn report_scaled(&self, rep: &mut Report, name: &str, t: &Timings, unit: &str, power: f64) {
        rep.set_median(name, &self.scaled(t, power), unit);
        rep.set_median(&format!("{name}.raw"), &t.raw(), unit);
    }

    /// The samples of `t`, each times its iteration's factor raised to
    /// `power` (1 for a time, -1 for a rate).
    pub fn scaled(&self, t: &Timings, power: f64) -> Vec<f64> {
        let factors = self.factors(t.serial);
        t.samples
            .iter()
            .map(|&(i, x)| x * factors.get(i).map_or(f64::NAN, |f| f.powf(power)))
            .collect()
    }
}

/// Samples of one timed metric, each tagged with the iteration that took
/// it, so that it can be scaled by that iteration's speed factor.
#[derive(Debug)]
pub struct Timings {
    samples: Vec<(usize, f64)>,
    /// The timed work runs on one thread (builds, daemon starts), so the
    /// serial host-speed samples scale it; otherwise the parallel ones.
    serial: bool,
}

impl Timings {
    /// Timings of work on one thread (`serial`) or on the pools.
    pub fn new(serial: bool) -> Timings {
        Timings {
            samples: Vec::new(),
            serial,
        }
    }

    /// Adds a sample of the current iteration.
    pub fn push(&mut self, pace: &Pace, x: f64) {
        self.samples.push((pace.done.saturating_sub(1), x));
    }

    /// The raw samples.
    fn raw(&self) -> Vec<f64> {
        self.samples.iter().map(|s| s.1).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn times_scale_by_their_iterations_speed_factor() {
        let ctx = Ctx {
            seed: 1,
            seconds: 0.0,
            trace: false,
            reduced: true,
            tmp: PathBuf::new(),
            served_bin: None,
        };
        let mut pace = Pace::new(&ctx);
        pace.done = 2;
        let p = speed::PARALLEL_REFERENCE_S;
        // Iteration 0 ran at the reference speed, iteration 1 at half.
        pace.parallel_refs = vec![p, p, 3.0 * p];
        pace.serial_refs = vec![1.0, 1.0, 1.0];
        let mut t = Timings::new(false);
        pace.done = 1;
        t.push(&pace, 1.0);
        pace.done = 2;
        t.push(&pace, 2.0);
        assert_eq!(pace.scaled(&t, 1.0), vec![1.0, 1.0]);
        assert_eq!(pace.scaled(&t, -1.0), vec![1.0, 4.0]);
        assert_eq!(t.raw(), vec![1.0, 2.0]);
        let serial = pace.factors(true);
        assert!(serial.iter().all(|&f| f == speed::SERIAL_REFERENCE_S));
    }
}
