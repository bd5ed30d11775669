//! Benchmarks of whole-simulation throughput: how fast the
//! discrete-event substrate chews through the paper's workloads, with and
//! without LITEWORP, across network sizes. Std-only `harness = false`
//! binary; see `liteworp_bench::timing`.

use liteworp_bench::experiments::scale_sweep::{self, ScaleSweepConfig};
use liteworp_bench::timing::{bench_heavy, bench_heavy_ratio, black_box};
use liteworp_bench::Scenario;
use liteworp_netsim::prelude::*;
use liteworp_netsim::rng::{Pcg32, Rng};
use std::any::Any;

fn bench_simulation_throughput() {
    for &nodes in &[20usize, 50, 100] {
        for protected in [false, true] {
            let label = format!(
                "simulate_60s/{}{}",
                nodes,
                if protected { "_liteworp" } else { "_baseline" }
            );
            bench_heavy(&label, 10, || {
                let mut run = Scenario {
                    nodes,
                    malicious: 2,
                    protected,
                    seed: 77,
                    ..Scenario::default()
                }
                .build();
                run.run_until_secs(60.0);
                black_box(run.data_sent())
            });
        }
    }
}

fn bench_guard_overhead() {
    // LITEWORP's cost on identical traffic: with no attacker the guard
    // changes nothing on the air, so the protected and unprotected runs
    // send and deliver the same frames (asserted every round) and the
    // ratio is the guard's own work.
    let run = |protected| {
        move || {
            let mut run = Scenario {
                nodes: 100,
                malicious: 0,
                protected,
                seed: 77,
                ..Scenario::default()
            }
            .build();
            run.run_until_secs(60.0);
            let m = run.sim().metrics();
            (m.frames_sent, m.frames_delivered)
        }
    };
    bench_heavy_ratio(
        "guard_overhead/100",
        9,
        ("delivered_frame", |&(_, delivered): &(u64, u64)| delivered),
        run(false),
        run(true),
    );
}

fn bench_scenario_build() {
    // Deployment + colluder placement + oracle bootstrap cost.
    bench_heavy("scenario_build_100", 20, || {
        Scenario {
            nodes: 100,
            malicious: 2,
            protected: true,
            seed: 78,
            ..Scenario::default()
        }
        .build()
    });
}

fn bench_scenario_build_at_scale() {
    // A build that grows with N (field, grid, the block arena of preloaded
    // tables, the nodes) and the drop that frees it, as perfbench's
    // `scale_100k` set-up times it at 10^5 nodes.
    let scenario = Scenario {
        seed: 80,
        ..scale_sweep::scenario_for(&ScaleSweepConfig::default(), 10_000)
    };
    bench_heavy("scenario_build_10000", 20, || {
        drop(black_box(scenario.build()))
    });
}

fn bench_route_flood() {
    // The first seconds of a large deployment are dominated by flooded
    // route requests and reverse-path replies — the protocol's broadcast
    // hot path, before steady-state data traffic takes over.
    bench_heavy("route_flood_100_10s", 10, || {
        let mut run = Scenario {
            nodes: 100,
            malicious: 0,
            protected: true,
            seed: 79,
            ..Scenario::default()
        }
        .build();
        run.run_until_secs(10.0);
        black_box(run.route_counts())
    });
}

/// A node that broadcasts a 32-byte beacon every `BEACON_MS` (first one
/// at a random phase) and only counts what it hears: no protocol work, so
/// a run's time is the medium and MAC alone.
#[derive(Default)]
struct Beacon {
    heard: u64,
}

const BEACON_MS: u64 = 250;

impl NodeLogic<u32> for Beacon {
    fn on_start(&mut self, ctx: &mut Context<'_, u32>) {
        let phase = ctx.rng().gen_range(0..BEACON_MS * 1000);
        ctx.set_timer(SimDuration::from_micros(phase), 0);
    }
    fn on_timer(&mut self, ctx: &mut Context<'_, u32>, _token: u64) {
        ctx.send(FrameSpec::new(Dest::Broadcast, ctx.id().0, 32));
        ctx.set_timer(SimDuration::from_micros(BEACON_MS * 1000), 0);
    }
    fn on_frame(&mut self, _ctx: &mut Context<'_, u32>, _frame: &Frame<u32>) {
        self.heard += 1;
    }
    fn as_any(&self) -> &dyn Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

fn bench_reception_fanout() {
    // The medium/MAC layer alone: 100 beaconing nodes at the paper's
    // density for 30 simulated seconds (~12k transmissions, ~90k
    // receptions, with carrier-sense deferrals and collisions). Every
    // reception runs the fan-out and the collision verdict; nothing else
    // is simulated.
    let radio = RadioConfig::default();
    let field =
        Field::with_average_neighbors(100, 8.0, radio.range_m, &mut Pcg32::seed_from_u64(80));
    bench_heavy("reception_fanout/100", 10, || {
        let mut sim = Simulator::new(field.clone(), radio.clone(), 81);
        for _ in 0..field.len() {
            sim.push_node(Box::new(Beacon::default()));
        }
        sim.run_until(SimTime::from_secs_f64(30.0));
        black_box(sim.metrics().frames_delivered)
    });
}

fn main() {
    bench_reception_fanout();
    bench_guard_overhead();
    bench_simulation_throughput();
    bench_scenario_build();
    bench_scenario_build_at_scale();
    bench_route_flood();
}
