//! Microbenchmarks of LITEWORP's hot per-packet operations — the
//! quantities the paper's Section 5.2 computation analysis is about
//! (neighbor lookups, watch-buffer operations, tag computation), plus the
//! special functions of the analysis crate. Std-only `harness = false`
//! binary; see `liteworp_bench::timing`.

use liteworp::config::Config;
use liteworp::keys::KeyStore;
use liteworp::malc::MalcTable;
use liteworp::monitor::{LocalMonitor, PacketObs};
use liteworp::neighbor::NeighborTable;
use liteworp::types::{Micros, NodeId, PacketKind, PacketSig};
use liteworp::watch::WatchBuffer;
use liteworp_analysis::special::{binomial_tail, regularized_incomplete_beta};
use liteworp_bench::timing::{bench, bench_pair, black_box};
use liteworp_netsim::events::EventQueue;
use liteworp_netsim::field::{Field, NodeId as SimNodeId};
use liteworp_netsim::rng::{Pcg32, Rng};
use liteworp_netsim::time::SimTime;
use liteworp_obs as obs;
use liteworp_runner::cache::{CacheLoad, ResultCache};
use liteworp_runner::Json;

fn sig(seq: u64) -> PacketSig {
    PacketSig {
        kind: PacketKind::RouteReply,
        origin: NodeId(1),
        target: NodeId(2),
        seq,
    }
}

fn table_with_degree(n: u32) -> NeighborTable {
    let mut t = NeighborTable::new(NodeId(0));
    for i in 1..=n {
        t.add_neighbor(NodeId(i));
    }
    let all: Vec<NodeId> = (0..=n).map(NodeId).collect();
    for i in 1..=n {
        t.set_neighbor_list(NodeId(i), all.iter().copied());
    }
    t
}

fn bench_neighbor_table() {
    for degree in [8u32, 16, 32] {
        let t = table_with_degree(degree);
        bench(&format!("neighbor_table/link_plausible/{degree}"), || {
            t.link_plausible(black_box(NodeId(3)), black_box(NodeId(5)))
        });
        bench(&format!("neighbor_table/is_guard_of/{degree}"), || {
            t.is_guard_of(black_box(NodeId(3)), black_box(NodeId(5)))
        });
    }
}

fn bench_watch_buffer() {
    for fill in [16u64, 64, 256] {
        bench(&format!("watch_buffer/insert_confirm/{fill}"), || {
            let mut buf = WatchBuffer::new(512);
            for i in 0..fill {
                buf.note_transmission(NodeId(1), sig(i), Some(NodeId(2)), Micros(1000));
            }
            for i in 0..fill {
                black_box(buf.confirm_forward(NodeId(1), &sig(i), NodeId(2)));
            }
        });
        bench(&format!("watch_buffer/expire/{fill}"), || {
            let mut buf = WatchBuffer::new(512);
            for i in 0..fill {
                buf.note_transmission(NodeId(1), sig(i), Some(NodeId(2)), Micros(1000));
            }
            black_box(buf.expire(Micros(2000)))
        });
    }
}

fn bench_keys() {
    let ks = KeyStore::new(7, NodeId(1));
    let msg = [0u8; 24];
    bench("keys/tag_24B", || {
        ks.tag(black_box(NodeId(2)), black_box(&msg))
    });
    let tag = ks.tag(NodeId(2), &msg);
    let peer = KeyStore::new(7, NodeId(2));
    bench("keys/verify_24B", || {
        peer.verify(black_box(NodeId(1)), black_box(&msg), black_box(tag))
    });
}

/// One overheard hop of packet `seq` at `now`: the transmission by 1,
/// then the forward by 2 claiming prev = 1 — fabrication check plus watch
/// arming, twice.
fn observe_hop(mon: &mut LocalMonitor, table: &mut NeighborTable, seq: u64, now: Micros) {
    let tx = PacketObs {
        sender: NodeId(1),
        claimed_prev: None,
        link_dst: Some(NodeId(2)),
        sig: sig(seq),
        terminal: false,
    };
    mon.observe(table, &tx, now);
    let fwd = PacketObs {
        sender: NodeId(2),
        claimed_prev: Some(NodeId(1)),
        link_dst: Some(NodeId(3)),
        sig: sig(seq),
        terminal: false,
    };
    black_box(mon.observe(table, &fwd, now));
}

fn bench_monitor_pipeline() {
    // The full guard-side path for one overheard forwarded packet. Time
    // advances 1 us per hop and nothing expires, so this scans a buffer
    // saturated at its 512-entry capacity.
    let mut table = table_with_degree(8);
    let mut mon = LocalMonitor::new(Config::default());
    let mut seq = 0u64;
    bench("monitor/observe_forward", || {
        seq += 1;
        observe_hop(&mut mon, &mut table, seq, Micros(seq));
    });

    // The same hop at the standing fill a simulated guard carries: time
    // advances δ/14 per hop and the buffer is expired every δ, so it holds
    // 28–56 entries (mean ~42; results/cost_table.txt measures 41.4).
    let mut table = table_with_degree(8);
    let mut mon = LocalMonitor::new(Config::default());
    let delta = mon.config().watch_timeout_us;
    let step = delta / 14;
    let mut seq = 0u64;
    bench("monitor/observe_forward_steady", || {
        seq += 1;
        let now = Micros(seq * step);
        if seq.is_multiple_of(14) {
            black_box(mon.expire(&mut table, now));
        }
        observe_hop(&mut mon, &mut table, seq, now);
    });
}

/// 64 MalC updates over 8 nodes, 40 ms apart, each holding what `guard`
/// returns (a span, or nothing).
fn malc_updates<G>(window: u64, mut guard: impl FnMut() -> G) -> u32 {
    let mut t = MalcTable::new(window);
    let mut out = 0u32;
    for i in 0..64u64 {
        let _guard = guard();
        out = t.record(NodeId((i % 8) as u32), 2, Micros(i * 40_000));
    }
    out
}

fn bench_malc() {
    // MalC accusation bookkeeping: the windowed variant pays expiry on
    // every update, the unbounded one is a pure counter bump.
    bench("malc/update/unbounded", || malc_updates(0, || ()));
    // The windowed workload timed interleaved with the same workload
    // under a disabled span around every update: obs_smoke.sh holds the
    // spanned record's `pair_ratio` to the plain one within 5%.
    obs::disable();
    bench_pair(
        ("malc/update/windowed", || malc_updates(1_000_000, || ())),
        ("malc/update/windowed_spanned", || {
            malc_updates(1_000_000, || obs::span("job"))
        }),
        101,
    );
}

fn bench_cache_lookup() {
    // A verified hit on the content-addressed result cache: open, read,
    // checksum, parse. This is the daemon's fast path for repeated
    // requests.
    let dir = std::env::temp_dir().join(format!("liteworp-bench-cache-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let cache = ResultCache::new(&dir);
    let key = ResultCache::key("bench-scenario", 7, "bench-v1");
    let value = Json::object([
        ("drops", Json::from(12.5)),
        ("data_sent", Json::from(4096.0)),
        ("all_detected", Json::from(true)),
    ]);
    cache.store(key, &value).expect("store bench entry");
    bench("cache/lookup_hit", || {
        match cache.load_checked(black_box(key)) {
            CacheLoad::Hit(json) => json,
            other => panic!("bench cache entry vanished: {other:?}"),
        }
    });
    let _ = std::fs::remove_dir_all(&dir);
}

fn bench_obs() {
    // The observability plane's cost contract. Disabled (the default for
    // every experiment bin unless --observe is passed), a span is
    // one relaxed atomic load and a branch; enabled, it pays two clock
    // reads plus the thread-local stack push/pop.
    obs::disable();
    bench("obs/span_disabled", || obs::span("job"));

    obs::enable();
    {
        // Nested under a long-lived root, the common shape in the bins.
        let _outer = obs::span("request");
        bench("obs/span_enabled", || obs::span("job"));
    }
    obs::disable();
    obs::profile::reset();
}

fn bench_neighbor_discovery() {
    // Full-network neighbor discovery: building a field's nominal-range
    // adjacency (grid plus every node's sorted in-range set) on an
    // `N_B = 8` deployment. Every neighbor query of the simulator reads
    // this precomputed adjacency, so its build is the whole cost; it must
    // stay linear in N, and a lost grid shows up as an N²-shaped cliff
    // between the two sizes.
    for n in [1_000usize, 10_000] {
        let mut rng = Pcg32::seed_from_u64(0xd15c);
        let deployed = Field::with_average_neighbors(n, 8.0, 30.0, &mut rng);
        bench(&format!("neighbor_discovery/{n}"), || {
            let field = Field::from_positions(deployed.side(), 30.0, deployed.positions().to_vec());
            field.in_range_of(SimNodeId(0)).len()
        });
    }
}

fn bench_event_loop() {
    // The indexed event queue under a tie-heavy schedule: timestamps drawn
    // from a handful of distinct values so most orderings fall through to
    // the (time, seq) tie-break, with steady-state push/pop churn layered
    // on top — the simulator's inner-loop shape.
    let tie_heavy_times = |pending: usize| -> Vec<SimTime> {
        let mut rng = Pcg32::seed_from_u64(0x5eed);
        (0..pending)
            .map(|_| SimTime::from_micros(rng.gen_range(0u64..16)))
            .collect()
    };
    for pending in [1_024usize, 16_384] {
        let times = tie_heavy_times(pending);
        bench(&format!("event_loop/churn_{pending}"), || {
            let mut q = EventQueue::new();
            for (i, &t) in times.iter().enumerate() {
                q.push(t, i as u32);
            }
            let mut acc = 0u64;
            while let Some((t, v)) = q.pop() {
                acc = acc.wrapping_add(t.as_micros()).wrapping_add(v as u64);
            }
            acc
        });
    }
    // The same churn with a payload the size of the simulator's event
    // (128 bytes: a transmission end carries its whole frame).
    let times = tie_heavy_times(1_024);
    bench("event_loop/churn_frame_1024", || {
        let mut q = EventQueue::new();
        for (i, &t) in times.iter().enumerate() {
            let mut frame = [0u64; 16];
            frame[0] = i as u64;
            q.push(t, frame);
        }
        let mut acc = 0u64;
        while let Some((t, frame)) = q.pop() {
            acc = acc.wrapping_add(t.as_micros()).wrapping_add(frame[0]);
        }
        acc
    });
}

fn bench_special_functions() {
    bench("special/binomial_tail_200", || {
        binomial_tail(black_box(200), black_box(120), black_box(0.55))
    });
    bench("special/incomplete_beta", || {
        regularized_incomplete_beta(black_box(12.0), black_box(30.0), black_box(0.35))
    });
}

fn main() {
    bench_neighbor_table();
    bench_watch_buffer();
    bench_keys();
    bench_monitor_pipeline();
    bench_malc();
    bench_neighbor_discovery();
    bench_event_loop();
    bench_obs();
    bench_cache_lookup();
    bench_special_functions();
}
