//! Differential property tests for the spatial index, the precomputed
//! adjacency, the medium (collision gather, carrier sense, pruning) and
//! the event queue: every indexed or precomputed answer must be
//! *set-identical* to the brute-force scan it replaced, over randomized
//! PCG32 deployments — including the awkward geometries (coincident
//! nodes, cell-boundary nodes, out-of-field probes, fields smaller than
//! one grid cell, empty fields) where an off-by-one in cell arithmetic
//! would hide at paper scale.
//!
//! Driven by the in-repo deterministic PCG32 generator, so any failure
//! reproduces exactly from the printed case parameters.

use liteworp_netsim::events::EventQueue;
use liteworp_netsim::field::{Field, NodeId, Position};
use liteworp_netsim::medium::{Interference, Medium, TxRecord};
use liteworp_netsim::rng::{Pcg32, Rng};
use liteworp_netsim::time::{SimDuration, SimTime};
use std::collections::BTreeMap;

const CASES: u64 = 48;

/// A deployment that deliberately lands some nodes exactly on grid-cell
/// edges (integer multiples of the radio range) and on the field border,
/// where `floor(coord / cell)` is most fragile.
fn arb_positions(rng: &mut Pcg32, n: usize, side: f64, range: f64) -> Vec<Position> {
    (0..n)
        .map(|_| {
            let snap = rng.gen_range(0u32..4);
            let coord = |rng: &mut Pcg32| match snap {
                // Snap to a cell boundary: k * range, clamped to the field.
                0 => (rng.gen_range(0u32..8) as f64 * range).min(side),
                // Snap to the field border itself.
                1 => {
                    if rng.gen_range(0u32..2) == 0 {
                        0.0
                    } else {
                        side
                    }
                }
                _ => rng.gen_range(0.0f64..side),
            };
            Position::new(coord(rng), coord(rng))
        })
        .collect()
}

fn brute_in_disc(positions: &[Position], center: Position, radius: f64) -> Vec<NodeId> {
    (0..positions.len() as u32)
        .filter(|&i| positions[i as usize].distance_to(&center) <= radius)
        .map(NodeId)
        .collect()
}

// ----------------------------------------------------------------------
// Field: precomputed adjacency and grid disc queries vs the O(N²) scan.
// ----------------------------------------------------------------------

#[test]
fn neighbor_queries_match_brute_force_over_random_deployments() {
    let mut rng = Pcg32::seed_from_u64(0x6772_6401);
    for case in 0..CASES {
        // Densities from near-empty to ~40 nodes per cell; fields from
        // smaller than one cell (single-bucket grid) to many cells.
        let n = rng.gen_range(0usize..120);
        let side = rng.gen_range(10.0f64..400.0);
        let range = rng.gen_range(5.0f64..100.0);
        let positions = arb_positions(&mut rng, n, side, range);
        let field = Field::from_positions(side, range, positions.clone());
        for id in 0..n as u32 {
            let me = NodeId(id);
            let brute: Vec<NodeId> = (0..n as u32)
                .map(NodeId)
                .filter(|&other| {
                    other != me
                        && positions[other.index()].distance_to(&positions[me.index()]) <= range
                })
                .collect();
            assert_eq!(
                field.in_range_of(me),
                brute,
                "case {case}: n={n} side={side} range={range} id={id}"
            );
        }
    }
}

#[test]
fn disc_queries_match_brute_force_for_arbitrary_centers() {
    let mut rng = Pcg32::seed_from_u64(0x6772_6402);
    for case in 0..CASES {
        let n = rng.gen_range(0usize..100);
        let side = rng.gen_range(10.0f64..300.0);
        let range = rng.gen_range(5.0f64..80.0);
        let positions = arb_positions(&mut rng, n, side, range);
        let field = Field::from_positions(side, range, positions.clone());
        for _ in 0..8 {
            // Probe centers both inside and far outside the field (the
            // grid clamps them onto edge cells), radii from zero to
            // high-power discs spanning several cell rings.
            let center = Position::new(
                rng.gen_range(-100.0f64..side + 100.0),
                rng.gen_range(-100.0f64..side + 100.0),
            );
            let radius = match rng.gen_range(0u32..4) {
                0 => 0.0,
                1 => range * rng.gen_range(2.0f64..10.0),
                _ => rng.gen_range(0.0f64..range),
            };
            assert_eq!(
                field.nodes_within(center, radius),
                brute_in_disc(&positions, center, radius),
                "case {case}: n={n} side={side} range={range} \
                 center=({}, {}) radius={radius}",
                center.x,
                center.y
            );
        }
    }
}

#[test]
fn empty_field_answers_empty() {
    let field = Field::from_positions(50.0, 30.0, Vec::new());
    assert!(field
        .nodes_within(Position::new(25.0, 25.0), 1e9)
        .is_empty());
}

// ----------------------------------------------------------------------
// Medium: gather, carrier sense and pruning vs brute force.
// ----------------------------------------------------------------------

/// Whether `subject` is lost at receiver `rx` at `pos`, by brute force
/// over every record.
fn brute_collides(
    records: &[TxRecord],
    subject: &TxRecord,
    rx: NodeId,
    pos: Position,
    factor: f64,
) -> bool {
    records.iter().any(|o| {
        o.seq != subject.seq
            && o.start < subject.end
            && o.end > subject.start
            && (o.transmitter == rx || pos.distance_to(&o.origin) <= o.range * factor)
    })
}

/// What carrier sense at `pos` should report at `at`, by brute force
/// over every record.
fn brute_busy_until(
    records: &[TxRecord],
    pos: Position,
    at: SimTime,
    factor: f64,
) -> Option<SimTime> {
    records
        .iter()
        .filter(|r| r.start <= at && r.end > at && pos.distance_to(&r.origin) <= r.range * factor)
        .map(|r| r.end)
        .max()
}

#[test]
fn per_transmission_verdicts_match_brute_force_scan() {
    let mut rng = Pcg32::seed_from_u64(0x6d65_6404);
    for case in 0..CASES {
        let n = rng.gen_range(2usize..60);
        let side = rng.gen_range(10.0f64..300.0);
        let range = rng.gen_range(5.0f64..80.0);
        let positions = arb_positions(&mut rng, n, side, range);
        let field = Field::from_positions(side, range, positions.clone());
        // Transmissions come from field nodes at their own positions, as
        // in the simulator; some nodes transmit twice so receivers are
        // often transmitters too (the half-duplex arm), and one in five
        // records is high power, reaching past one cell ring.
        let txs = rng.gen_range(1usize..24);
        let records: Vec<TxRecord> = (0..txs as u64)
            .map(|seq| {
                let node = rng.gen_range(0u32..n as u32);
                let start = rng.gen_range(0u64..4_000);
                let power = if rng.gen_range(0u32..5) == 0 {
                    rng.gen_range(2.0f64..4.0)
                } else {
                    1.0
                };
                TxRecord {
                    seq,
                    transmitter: NodeId(node),
                    origin: positions[node as usize],
                    start: SimTime::from_micros(start),
                    end: SimTime::from_micros(start + rng.gen_range(1u64..1_500)),
                    range: range * power,
                }
            })
            .collect();
        for factor in [1.0, 2.0] {
            let mut medium = Medium::new(factor);
            for r in &records {
                medium.begin(*r);
            }
            let mut gathered = Interference::default();
            for subject in &records {
                medium.gather(subject.seq, &mut gathered);
                for rx in field.nodes_within(subject.origin, subject.range) {
                    if rx == subject.transmitter {
                        continue;
                    }
                    let pos = positions[rx.index()];
                    assert_eq!(
                        gathered.collides(rx, pos),
                        brute_collides(&records, subject, rx, pos, factor),
                        "case {case}: factor={factor} seq={} rx={rx} n={n} side={side} range={range}",
                        subject.seq
                    );
                }
            }
        }
    }
}

/// Gather verdicts, carrier sense and pruning against brute force, with a
/// handful of live records (even cases) and with many more live records
/// than a query's grid window would have cells (odd cases). Records come
/// from field nodes at their own positions, as in the simulator.
#[test]
fn medium_answers_match_brute_force_with_few_and_many_live_records() {
    let mut rng = Pcg32::seed_from_u64(0x6d65_6405);
    for case in 0..CASES {
        let n = rng.gen_range(2usize..80);
        let side = rng.gen_range(10.0f64..300.0);
        let range = rng.gen_range(5.0f64..80.0);
        let positions = arb_positions(&mut rng, n, side, range);
        let field = Field::from_positions(side, range, positions.clone());
        let cells_per_axis = ((side / range).ceil() as u64).max(1);
        let live = if case % 2 == 0 {
            rng.gen_range(1u64..4)
        } else {
            cells_per_axis * cells_per_axis + 1 + rng.gen_range(0u64..40)
        };
        let records: Vec<TxRecord> = (0..live)
            .map(|seq| {
                let node = rng.gen_range(0u32..n as u32);
                let start = 10_000 + rng.gen_range(0u64..4_000);
                let power = if rng.gen_range(0u32..5) == 0 {
                    rng.gen_range(2.0f64..4.0)
                } else {
                    1.0
                };
                TxRecord {
                    seq,
                    transmitter: NodeId(node),
                    origin: positions[node as usize],
                    start: SimTime::from_micros(start),
                    end: SimTime::from_micros(start + rng.gen_range(1u64..1_500)),
                    range: range * power,
                }
            })
            .collect();
        for factor in [1.0, 2.0] {
            let mut medium = Medium::new(factor);
            for r in &records {
                medium.begin(*r);
            }
            let mut gathered = Interference::default();
            for subject in &records {
                medium.gather(subject.seq, &mut gathered);
                for rx in field.nodes_within(subject.origin, subject.range) {
                    if rx == subject.transmitter {
                        continue;
                    }
                    let pos = positions[rx.index()];
                    assert_eq!(
                        gathered.collides(rx, pos),
                        brute_collides(&records, subject, rx, pos, factor),
                        "case {case}: gather, factor={factor} seq={} rx={rx} live={live} \
                         side={side} range={range}",
                        subject.seq
                    );
                }
            }
            // Random probes, plus each record's own start and end at its
            // origin (the boundaries of its busy interval).
            let probes = (0..32)
                .map(|_| {
                    let pos = Position::new(
                        rng.gen_range(-20.0f64..side + 20.0),
                        rng.gen_range(-20.0f64..side + 20.0),
                    );
                    (pos, SimTime::from_micros(rng.gen_range(9_000u64..16_000)))
                })
                .chain(
                    records
                        .iter()
                        .flat_map(|r| [(r.origin, r.start), (r.origin, r.end)]),
                )
                .collect::<Vec<_>>();
            for (pos, at) in probes {
                assert_eq!(
                    medium.busy_until(pos, at),
                    brute_busy_until(&records, pos, at, factor),
                    "case {case}: busy_until at ({}, {}) t={at:?} live={live} factor={factor}",
                    pos.x,
                    pos.y
                );
            }
            // Pruning keeps exactly the records that can still overlap a
            // frame in flight: those ending after `now - max_airtime - 1µs`.
            // The first prune leaves one record's end 1µs past the cutoff.
            let max_airtime = records
                .iter()
                .map(|r| r.end.saturating_since(r.start))
                .max()
                .unwrap_or_default();
            let keep = max_airtime + SimDuration::from_micros(1);
            let edge = records[rng.gen_range(0usize..records.len())].end + max_airtime;
            for now in [edge, SimTime::from_micros(rng.gen_range(20_000u64..24_000))] {
                let cutoff = SimTime::ZERO + now.saturating_since(SimTime::ZERO + keep);
                medium.prune(now);
                assert_eq!(
                    medium.record_count(),
                    records.iter().filter(|r| r.end > cutoff).count(),
                    "case {case}: prune at {now:?} live={live} factor={factor}"
                );
            }
        }
    }
}

// ----------------------------------------------------------------------
// Event queue: (time, seq) total order vs a reference model.
// ----------------------------------------------------------------------

#[test]
fn event_queue_matches_stable_reference_model() {
    let mut rng = Pcg32::seed_from_u64(0x6576_6501);
    for case in 0..CASES {
        let mut q = EventQueue::new();
        // Reference model: a flat list ordered by (time, push index) —
        // the determinism contract the simulator relies on for same-time
        // events.
        let mut model: Vec<(SimTime, u64, u64)> = Vec::new();
        let mut pushed = 0u64;
        let ops = rng.gen_range(10usize..200);
        for _ in 0..ops {
            // Pushes outnumber pops so ties between same-time events
            // accumulate; times are drawn from a tiny range to force
            // collisions.
            if rng.gen_range(0u32..3) < 2 {
                let t = SimTime::from_micros(rng.gen_range(0u64..8));
                q.push(t, pushed);
                model.push((t, pushed, pushed));
                pushed += 1;
            } else {
                let expect = model
                    .iter()
                    .enumerate()
                    .min_by_key(|(_, &(t, s, _))| (t, s))
                    .map(|(i, _)| i);
                match expect {
                    Some(i) => {
                        let (t, _, v) = model.remove(i);
                        assert_eq!(q.pop(), Some((t, v)), "case {case}");
                    }
                    None => assert_eq!(q.pop(), None, "case {case}"),
                }
            }
        }
        // Drain: the remainder must come out in exactly (time, seq) order.
        while let Some(i) = model
            .iter()
            .enumerate()
            .min_by_key(|(_, &(t, s, _))| (t, s))
            .map(|(i, _)| i)
        {
            let (t, _, v) = model.remove(i);
            assert_eq!(q.pop(), Some((t, v)), "case {case}: drain");
        }
        assert_eq!(q.pop(), None, "case {case}: empty after drain");
    }
}

/// The queue against a reference that sorts by `(time, push index)`,
/// driven in bursts: a run of pushes, then a run of pops, so slots freed
/// by one burst's pops are refilled by the next burst's pushes. Times come
/// from a window of eight microseconds that creeps forward, so most keys
/// tie on time; payloads are heap-allocated and name their push, so an
/// event stored in or read from the wrong slot shows.
#[test]
fn event_queue_reuses_slots_in_push_order() {
    let mut rng = Pcg32::seed_from_u64(0x6576_6502);
    for case in 0..CASES {
        let mut q = EventQueue::new();
        let mut model: BTreeMap<(SimTime, u64), String> = BTreeMap::new();
        let mut pushed = 0u64;
        let mut floor = 0u64;
        for _ in 0..rng.gen_range(4usize..40) {
            for _ in 0..rng.gen_range(0usize..48) {
                let t = SimTime::from_micros(floor + rng.gen_range(0u64..8));
                q.push(t, format!("event {pushed}"));
                model.insert((t, pushed), format!("event {pushed}"));
                pushed += 1;
            }
            for _ in 0..rng.gen_range(0usize..48) {
                let expect = model.pop_first().map(|((t, _), v)| (t, v));
                assert_eq!(
                    q.next_time(),
                    expect.as_ref().map(|(t, _)| *t),
                    "case {case}"
                );
                assert_eq!(q.pop(), expect, "case {case}");
            }
            assert_eq!(q.len(), model.len(), "case {case}");
            floor += rng.gen_range(0u64..4);
        }
        while let Some(((t, _), v)) = model.pop_first() {
            assert_eq!(q.pop(), Some((t, v)), "case {case}: drain");
        }
        assert!(q.is_empty(), "case {case}: empty after drain");
        assert_eq!(q.pop(), None, "case {case}");
    }
}
