//! The simulation workloads — `paper_batch` (a reduced Figure 8 batch)
//! and `scale_100k` (one 10⁵-node scale-sweep run) — and the per-layer
//! rows every workload's traced run derives from the simulator.
//!
//! A batch workload runs its cells through `exec::run_cells` in three
//! phases on a fresh temp cache: `cold` (every job executes), `warm` (the
//! batch rerun, every job a cache hit) and `dedup` (the batch resumed
//! from its sweep journal, every job a journal hit).

use crate::report::Report;
use crate::trace::{trace_job, Accounting, JobTrace};
use crate::{Ctx, Pace, TempDir, Timings};
use liteworp_bench::exec::{run_cells, CellRun, ExecOptions, SimCell};
use liteworp_bench::experiments::fig8::{self, Fig8Config};
use liteworp_bench::experiments::scale_sweep::{
    self, check, detection_model, measure_geometry, GeometryStats, ScaleRow, ScaleSweepConfig,
};
use liteworp_bench::scenario::Scenario;
use liteworp_runner::Manifest;
use std::time::Instant;

/// Network size of `scale_100k` (the reduced size used by the tests).
pub fn scale_nodes(ctx: &Ctx) -> usize {
    if ctx.reduced {
        10_000
    } else {
        100_000
    }
}

/// `paper_batch`: Figure 8's cells (100 nodes, M ∈ {2, 4}, LITEWORP on
/// and off) with fewer seeds and a shorter run; the seed picks the
/// seed base.
pub fn paper_cells(ctx: &Ctx) -> Vec<SimCell> {
    let cfg = Fig8Config {
        seeds: if ctx.reduced { 1 } else { 2 },
        duration: if ctx.reduced { 150.0 } else { 300.0 },
        ..Fig8Config::default()
    };
    let mut cells = fig8::cells(&cfg);
    for c in &mut cells {
        c.seed_base = 1000 + 100 * ctx.class();
    }
    cells
}

/// `scale_100k`: one seed of `scale_sweep::scenario_for` at 10⁵ nodes.
pub fn scale_cells(ctx: &Ctx) -> Vec<SimCell> {
    let cfg = ScaleSweepConfig::default();
    let nodes = scale_nodes(ctx);
    vec![SimCell::snapshot(
        format!("scale n={nodes}"),
        scale_sweep::scenario_for(&cfg, nodes),
        1,
        7_000 + ctx.class(),
        cfg.duration,
    )]
}

/// Checks a `paper_batch` result: every seed ran, and the drop table
/// (mean cumulative wormhole drops per sample instant) is cumulative.
fn check_drop_table(cells: &[SimCell], run: &CellRun, rep: &mut Report) {
    for (cell, outcomes) in cells.iter().zip(&run.outcomes) {
        rep.check(outcomes.len() as u64 == cell.seeds, || {
            format!(
                "{}: {} of {} seeds finished",
                cell.label,
                outcomes.len(),
                cell.seeds
            )
        });
        let table: Vec<f64> = (0..cell.sample_times.len())
            .map(|i| {
                outcomes.iter().map(|o| o.drops_at[i]).sum::<f64>() / outcomes.len().max(1) as f64
            })
            .collect();
        rep.check(table.windows(2).all(|w| w[0] <= w[1]), || {
            format!("{}: drop table is not cumulative: {table:?}", cell.label)
        });
    }
}

/// Checks a `scale_100k` result against the scale sweep's closed forms.
fn check_scale(geometry: &GeometryStats, nodes: usize, run: &CellRun, rep: &mut Report) {
    let Some(o) = run.outcomes.first().and_then(|c| c.first()) else {
        rep.check(false, || "the scale job did not finish".to_string());
        return;
    };
    let model = detection_model(o.collision_fraction);
    let row = ScaleRow {
        nodes,
        seeds: 1,
        geometry: *geometry,
        detection_rate: if o.all_detected { 1.0 } else { 0.0 },
        predicted_detection: model.detection_probability_with(
            geometry.measured_guards.round() as u64,
            o.collision_fraction,
        ),
        collision_fraction: o.collision_fraction,
        data_sent: o.data_sent,
        drops: o.drops,
    };
    let violations = check(&[row]);
    rep.check(violations.is_empty(), || {
        format!("closed-form bounds: {violations:?}")
    });
}

/// The pinned value for this workload and seed class, when the run is
/// at full size.
fn pinned(ctx: &Ctx, workload: &str, what: &str) -> Option<String> {
    if ctx.reduced {
        return None;
    }
    let pins =
        liteworp_runner::Json::parse(include_str!("../pinned.json")).expect("pinned.json parses");
    pins.get(workload)?
        .get(what)?
        .as_arr()?
        .get(ctx.class() as usize)?
        .as_str()
        .map(str::to_string)
}

/// Compares a digest with its pin; a mismatch names the new digest.
fn check_pin(ctx: &Ctx, workload: &str, what: &str, digest: u64, rep: &mut Report) {
    let got = format!("{digest:016x}");
    if let Some(want) = pinned(ctx, workload, what) {
        rep.check(got == want, || {
            format!("{workload} {what} {got} != pinned {want}")
        });
    }
}

/// Runs one batch workload: `paper_batch` or `scale_100k`.
pub fn run(ctx: &Ctx, workload: &str, rep: &mut Report) {
    let scale = workload == "scale_100k";
    let cells = if scale {
        scale_cells(ctx)
    } else {
        paper_cells(ctx)
    };
    let jobs: u64 = cells.iter().map(|c| c.seeds).sum();
    let sim_seconds: f64 = cells.iter().map(|c| c.seeds as f64 * c.duration).sum();
    let geometry = scale.then(|| {
        let nodes = scale_nodes(ctx);
        let cfg = ScaleSweepConfig::default();
        measure_geometry(
            nodes,
            cfg.avg_neighbors,
            Scenario::default().radio.range_m,
            cfg.guard_links,
            41 + nodes as u64,
        )
    });
    // Warm and dedup reruns per iteration.
    let reruns = 96;
    // Set-up: build every job's scenario, as the jobs will. A
    // `paper_batch` iteration samples it before the cold batch and again
    // after the reruns, so that one slow moment of the host does not set
    // the median; a 10⁵-node build is long enough to sample once.
    let setup_repeats = if scale { 1 } else { 8 };
    let measure_setup = |setup: &mut Timings, pace: &Pace| {
        for _ in 0..setup_repeats {
            let t = Instant::now();
            for cell in &cells {
                for s in 0..cell.seeds {
                    let mut scenario = cell.scenario.clone();
                    scenario.seed = cell.seed_base + s;
                    std::hint::black_box(scenario.build());
                }
            }
            setup.push(pace, t.elapsed().as_secs_f64());
        }
    };

    // Builds run on one thread, and so does a batch of one job.
    let mut setup = Timings::new(true);
    let [mut walls, mut cold, mut warm, mut dedup, mut sim_rates, mut req_rates] =
        [(); 6].map(|_| Timings::new(jobs == 1));
    let (mut cold_manifests, mut warm_manifests): (Vec<Manifest>, Vec<Manifest>) = (vec![], vec![]);
    let mut digest = None;
    let mut pace = Pace::new(ctx);
    while pace.next(ctx) {
        measure_setup(&mut setup, &pace);

        let dir = TempDir::new(&ctx.tmp, "batch");
        let opts = ExecOptions {
            jobs: Some(ctx.jobs()),
            cache: true,
            cache_dir: Some(dir.path().join("cache")),
            ..ExecOptions::default()
        };
        let t = Instant::now();
        let run = run_cells(&cells, &opts);
        match &geometry {
            Some(g) => check_scale(g, scale_nodes(ctx), &run, rep),
            None => check_drop_table(&cells, &run, rep),
        }
        let cold_s = t.elapsed().as_secs_f64();
        walls.push(&pace, cold_s);
        cold.push(&pace, cold_s * 1e3);
        let m = run.manifest;
        rep.check(
            m.cache_hits == 0 && m.journal_hits == 0 && m.failed == 0,
            || {
                format!(
                    "cold batch: {} cache hits, {} journal hits, {} failed",
                    m.cache_hits, m.journal_hits, m.failed
                )
            },
        );
        match digest {
            None => {
                check_pin(ctx, workload, "results_digest", m.results_digest, rep);
                digest = Some(m.results_digest);
            }
            Some(d) => {
                rep.check(d == m.results_digest, || {
                    "cold batch digest changed between iterations".to_string()
                });
            }
        }
        let job_s: f64 = m.per_job.iter().map(|j| j.wall_ms).sum::<f64>() / 1e3;
        sim_rates.push(&pace, sim_seconds / job_s);

        // A warm (dedup) sample is the mean of `reruns` back-to-back batch
        // reruns answered by the cache (journal): single reruns take a
        // fraction of a millisecond and their spread is mostly scheduling.
        let mut rerun = |opts: &ExecOptions, from_cache: bool| {
            let t = Instant::now();
            let run = run_cells(&cells, opts);
            let s = t.elapsed().as_secs_f64();
            let m = run.manifest;
            let answered = if from_cache {
                m.cache_hits
            } else {
                m.journal_hits
            } as u64;
            rep.check(answered == jobs && Some(m.results_digest) == digest, || {
                format!(
                    "rerun: {answered} of {jobs} answered, digest {:016x}",
                    m.results_digest
                )
            });
            (s, m)
        };
        let mut warm_s = 0.0;
        for _ in 0..reruns {
            let (s, m) = rerun(&opts, true);
            warm_s += s;
            // One iteration's reruns are plenty for the runner rows, and
            // keeping every one would grow each later iteration's peak.
            if warm_manifests.len() < reruns {
                warm_manifests.push(m);
            }
        }
        let journaled = ExecOptions {
            journal: Some(dir.path().join("sweep.journal")),
            ..opts.clone()
        };
        run_cells(&cells, &journaled);
        let resumed = ExecOptions {
            resume: true,
            ..journaled
        };
        let dedup_s: f64 = (0..reruns).map(|_| rerun(&resumed, false).0).sum();
        warm.push(&pace, warm_s * 1e3 / reruns as f64);
        dedup.push(&pace, dedup_s * 1e3 / reruns as f64);
        let phase_s = cold_s + warm_s + dedup_s;
        req_rates.push(&pace, (1 + 2 * reruns) as f64 / phase_s);
        cold_manifests.push(m);
        if !scale {
            measure_setup(&mut setup, &pace);
        }
    }

    pace.report_time(rep, "setup_s", &setup, "s");
    pace.report(rep);
    pace.report_time(rep, "wall_s", &walls, "s");
    pace.report_rate(rep, "sim_s_per_s", &sim_rates, "sim_s/s");
    pace.report_rate(rep, "req_per_s", &req_rates, "1/s");
    for (name, t) in [("cold", &cold), ("warm", &warm), ("dedup", &dedup)] {
        pace.report_time(rep, &format!("{name}_p50_ms"), t, "ms");
    }
    if let Some(m) = cold_manifests.first() {
        rep.set("runner.cache_misses", m.cache_misses as f64, "count");
    }
    if let Some(m) = warm_manifests.first() {
        rep.set("runner.cache_hits", m.cache_hits as f64, "count");
    }
    if ctx.trace {
        runner_rows(&cold_manifests, rep);
        cache_hit_row(&warm_manifests, rep);
        let mut traced = Vec::new();
        for cell in &cells {
            for s in 0..cell.seeds {
                let mut scenario = cell.scenario.clone();
                scenario.seed = cell.seed_base + s;
                traced.push((scenario, cell.duration));
            }
        }
        if scale {
            // The scale cell is protected only; trace its baseline twin
            // on the same seed for the LITEWORP overhead row.
            let mut baseline = traced[0].0.clone();
            baseline.protected = false;
            traced.push((baseline, traced[0].1));
        }
        let jobs = trace_rows(&traced, rep);
        if scale {
            if let Some(job) = jobs.first() {
                check_pin(ctx, workload, "counter_digest", job.digest, rep);
            }
        }
        crate::served::probe(ctx, rep);
    }
}

/// `runner.job_ms_p50`, `runner.queue_wait_ms_p50` and
/// `runner.utilization` over the jobs of `manifests`.
pub fn runner_rows(manifests: &[Manifest], rep: &mut Report) {
    let jobs: Vec<_> = manifests.iter().flat_map(|m| &m.per_job).collect();
    let walls: Vec<f64> = jobs.iter().map(|j| j.wall_ms).collect();
    let waits: Vec<f64> = jobs.iter().map(|j| j.queue_wait_ms).collect();
    let util: Vec<f64> = manifests
        .iter()
        .map(|m| m.utilization.iter().sum::<f64>() / m.utilization.len().max(1) as f64)
        .collect();
    rep.set_median("runner.job_ms_p50", &walls, "ms");
    rep.set_median("runner.queue_wait_ms_p50", &waits, "ms");
    rep.set_median("runner.utilization", &util, "fraction");
}

/// `runner.cache_hit_ms_p50` over the cache-answered jobs of `manifests`.
pub fn cache_hit_row(manifests: &[Manifest], rep: &mut Report) {
    let hits: Vec<f64> = manifests
        .iter()
        .flat_map(|m| &m.per_job)
        .filter(|j| j.cached)
        .map(|j| j.wall_ms)
        .collect();
    rep.set_median("runner.cache_hit_ms_p50", &hits, "ms");
}

/// Traces each `(scenario, duration)` job (see [`trace_job`]) and records
/// the netsim, routing, core, attacks and trace rows. A job whose traced
/// run does not reproduce its untraced counters fails the run.
pub fn trace_rows(jobs: &[(Scenario, f64)], rep: &mut Report) -> Vec<JobTrace> {
    let mut traces = Vec::new();
    for (scenario, duration) in jobs {
        let job = trace_job(scenario, *duration);
        if rep.check(job.is_ok(), || {
            format!("trace rejected: {:?}", job.as_ref().err())
        }) {
            traces.push((scenario.protected, job.expect("checked above")));
        }
    }
    let mut acct = Accounting::default();
    let mut sum = JobTrace::default();
    let (mut per_frame, mut untraced_ns) = ([(0u64, 0u64); 2], 0u64);
    for (protected, j) in &traces {
        acct.add(&j.acct);
        untraced_ns += j.untraced_ns;
        let slot = &mut per_frame[*protected as usize];
        slot.0 += j.acct.frame_ns;
        slot.1 += j.frame_calls;
        for (total, x) in [
            (&mut sum.frame_calls, j.frame_calls),
            (&mut sum.timer_calls, j.timer_calls),
            (&mut sum.frames_sent, j.frames_sent),
            (&mut sum.frames_delivered, j.frames_delivered),
            (&mut sum.frames_collided, j.frames_collided),
            (&mut sum.mac_deferrals, j.mac_deferrals),
            (&mut sum.route_requests, j.route_requests),
            (&mut sum.data_sent, j.data_sent),
            (&mut sum.data_delivered, j.data_delivered),
            (&mut sum.wormhole_dropped, j.wormhole_dropped),
        ] {
            *total += x;
        }
        if *protected {
            for (total, x) in [
                (&mut sum.alert_frames, j.alert_frames),
                (&mut sum.watch_expiries, j.watch_expiries),
                (&mut sum.suspicions, j.suspicions),
                (&mut sum.isolations, j.isolations),
                (&mut sum.storage_bytes, j.storage_bytes),
                (&mut sum.protected_nodes, j.protected_nodes),
            ] {
                *total += x;
            }
        }
    }
    let protected_sent: u64 = traces.iter().filter(|t| t.0).map(|t| t.1.frames_sent).sum();
    let s = |ns: u64| ns as f64 / 1e9;
    let ratio = |a: u64, b: u64| {
        if b == 0 {
            f64::NAN
        } else {
            a as f64 / b as f64
        }
    };
    rep.set("netsim.event_loop_s", s(acct.event_loop_ns()), "s");
    rep.set("netsim.self_s", s(acct.netsim_self_ns), "s");
    rep.set(
        "netsim.ns_per_delivery",
        ratio(acct.netsim_self_ns, sum.frames_delivered),
        "ns",
    );
    rep.set("netsim.field_build_s", s(acct.field_build_ns), "s");
    rep.set("netsim.frames_sent", sum.frames_sent as f64, "count");
    rep.set(
        "netsim.frames_delivered",
        sum.frames_delivered as f64,
        "count",
    );
    rep.set(
        "netsim.frames_collided",
        sum.frames_collided as f64,
        "count",
    );
    rep.set("netsim.mac_deferrals", sum.mac_deferrals as f64, "count");
    rep.set("routing.on_frame_s", s(acct.frame_ns), "s");
    rep.set("routing.on_frame_calls", sum.frame_calls as f64, "count");
    rep.set("routing.on_timer_s", s(acct.timer_ns), "s");
    rep.set("routing.on_timer_calls", sum.timer_calls as f64, "count");
    rep.set("routing.on_other_s", s(acct.other_ns), "s");
    rep.set("routing.route_requests", sum.route_requests as f64, "count");
    rep.set(
        "routing.delivery_ratio",
        ratio(sum.data_delivered, sum.data_sent),
        "fraction",
    );
    let [base, prot] = per_frame;
    rep.set(
        "core.overhead_ns_per_frame",
        ratio(prot.0, prot.1) - ratio(base.0, base.1),
        "ns",
    );
    rep.set("core.preload_s", s(acct.preload_ns), "s");
    rep.set(
        "core.storage_bytes_per_node",
        ratio(sum.storage_bytes, sum.protected_nodes),
        "bytes",
    );
    rep.set(
        "core.alert_frame_share",
        ratio(sum.alert_frames, protected_sent),
        "fraction",
    );
    rep.set("core.watch_expiries", sum.watch_expiries as f64, "count");
    rep.set("core.suspicions", sum.suspicions as f64, "count");
    rep.set("core.isolations", sum.isolations as f64, "count");
    rep.set(
        "attacks.wormhole_dropped",
        sum.wormhole_dropped as f64,
        "count",
    );
    rep.set("trace.overhead", ratio(acct.total_ns, untraced_ns), "ratio");
    rep.set(
        "trace.unattributed_s",
        acct.unattributed_ns as f64 / 1e9,
        "s",
    );
    traces.into_iter().map(|t| t.1).collect()
}
