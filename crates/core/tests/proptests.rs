//! Property-based tests of the LITEWORP core invariants, driven by the
//! in-repo deterministic PCG32 generator: each test checks its property
//! over many randomized cases from a fixed seed, so failures reproduce
//! exactly.

use liteworp::alert::{AlertBuffer, AlertOutcome};
use liteworp::config::Config;
use liteworp::keys::KeyStore;
use liteworp::malc::MalcTable;
use liteworp::neighbor::NeighborTable;
use liteworp::types::{Micros, NodeId, PacketKind, PacketSig};
use liteworp::watch::WatchBuffer;
use liteworp_runner::rng::{Pcg32, Rng};

const CASES: u64 = 64;

fn arb_node(rng: &mut Pcg32) -> NodeId {
    NodeId(rng.gen_range(0u32..32))
}

fn distinct_nodes<const N: usize>(rng: &mut Pcg32) -> [NodeId; N] {
    loop {
        let picks: Vec<NodeId> = (0..N).map(|_| arb_node(rng)).collect();
        let set: std::collections::BTreeSet<_> = picks.iter().collect();
        if set.len() == N {
            return picks.try_into().unwrap();
        }
    }
}

fn arb_sig(rng: &mut Pcg32) -> PacketSig {
    PacketSig {
        kind: if rng.gen_bool(0.5) {
            PacketKind::RouteRequest
        } else {
            PacketKind::RouteReply
        },
        origin: arb_node(rng),
        target: arb_node(rng),
        seq: rng.gen_range(0u64..1000),
    }
}

fn arb_bytes(rng: &mut Pcg32, min: usize, max: usize) -> Vec<u8> {
    let len = rng.gen_range(min..max);
    (0..len).map(|_| rng.next_u32() as u8).collect()
}

// ----------------------------------------------------------------------
// Keys: tags verify iff key, peer and message all match.
// ----------------------------------------------------------------------

#[test]
fn mac_round_trip() {
    let mut rng = Pcg32::seed_from_u64(0x6d61_6331);
    for _ in 0..CASES {
        let seed = rng.next_u64();
        let [a, b] = distinct_nodes(&mut rng);
        let msg = arb_bytes(&mut rng, 0, 64);
        let ka = KeyStore::new(seed, a);
        let kb = KeyStore::new(seed, b);
        let tag = ka.tag(b, &msg);
        assert!(kb.verify(a, &msg, tag));
    }
}

#[test]
fn mac_rejects_tampering() {
    let mut rng = Pcg32::seed_from_u64(0x6d61_6332);
    for _ in 0..CASES {
        let seed = rng.next_u64();
        let [a, b] = distinct_nodes(&mut rng);
        let msg = arb_bytes(&mut rng, 1, 64);
        let ka = KeyStore::new(seed, a);
        let kb = KeyStore::new(seed, b);
        let tag = ka.tag(b, &msg);
        let mut tampered = msg.clone();
        let idx = rng.gen_range(0usize..tampered.len().max(1));
        tampered[idx] ^= 0x01;
        assert!(!kb.verify(a, &tampered, tag));
    }
}

#[test]
fn mac_is_peer_bound() {
    let mut rng = Pcg32::seed_from_u64(0x6d61_6333);
    for _ in 0..CASES {
        let seed = rng.next_u64();
        let [a, b, c] = distinct_nodes(&mut rng);
        let msg = arb_bytes(&mut rng, 0, 32);
        let ka = KeyStore::new(seed, a);
        let kc = KeyStore::new(seed, c);
        let tag = ka.tag(b, &msg);
        // c cannot verify a tag meant for the (a, b) pair.
        assert!(!kc.verify(a, &msg, tag));
    }
}

// ----------------------------------------------------------------------
// Watch buffer: no forwarder that forwarded in time is ever accused, and
// capacity is never exceeded.
// ----------------------------------------------------------------------

#[test]
fn watch_never_accuses_timely_forwarders() {
    let mut rng = Pcg32::seed_from_u64(0x7761_7401);
    for _ in 0..CASES {
        let [prev, fwd] = distinct_nodes(&mut rng);
        let n = rng.gen_range(1usize..20);
        let sigs: Vec<PacketSig> = (0..n).map(|_| arb_sig(&mut rng)).collect();
        let mut buf = WatchBuffer::new(64);
        for (i, sig) in sigs.iter().enumerate() {
            buf.note_transmission(prev, *sig, Some(fwd), Micros(1000 + i as u64), Micros(0));
        }
        for sig in &sigs {
            buf.confirm_forward(prev, sig, fwd);
        }
        let accused = buf.expire(Micros(u64::MAX));
        assert!(accused.is_empty(), "accused: {accused:?}");
    }
}

#[test]
fn watch_accuses_exactly_the_unforwarded() {
    let mut rng = Pcg32::seed_from_u64(0x7761_7402);
    for _ in 0..CASES {
        let [prev, fwd] = distinct_nodes(&mut rng);
        let n = rng.gen_range(1usize..20);
        // Deduplicate signatures so expectations are unambiguous.
        let mut seen = std::collections::HashSet::new();
        let sigs: Vec<(PacketSig, bool)> = (0..n)
            .map(|_| (arb_sig(&mut rng), rng.gen_bool(0.5)))
            .filter(|(s, _)| seen.insert(*s))
            .collect();
        let mut buf = WatchBuffer::new(sigs.len().max(1));
        for (sig, _) in &sigs {
            buf.note_transmission(prev, *sig, Some(fwd), Micros(1000), Micros(0));
        }
        for (sig, forwarded) in &sigs {
            if *forwarded {
                buf.confirm_forward(prev, sig, fwd);
            }
        }
        let accused = buf.expire(Micros(2000));
        let expected: usize = sigs.iter().filter(|(_, f)| !f).count();
        assert_eq!(accused.len(), expected);
        assert!(accused.iter().all(|(n, _, _)| *n == fwd));
    }
}

#[test]
fn watch_respects_capacity() {
    let mut rng = Pcg32::seed_from_u64(0x7761_7403);
    for _ in 0..CASES {
        let cap = rng.gen_range(1usize..16);
        let n = rng.gen_range(0usize..64);
        let mut buf = WatchBuffer::new(cap);
        for i in 0..n {
            let (prev, sig) = (arb_node(&mut rng), arb_sig(&mut rng));
            buf.note_transmission(prev, sig, None, Micros(i as u64 + 1), Micros(0));
            assert!(buf.len() <= cap);
        }
    }
}

// ----------------------------------------------------------------------
// MalC: windowed value never exceeds unbounded value; totals add up.
// ----------------------------------------------------------------------

#[test]
fn windowed_malc_is_bounded_by_unbounded() {
    let mut rng = Pcg32::seed_from_u64(0x6d61_6c63);
    for _ in 0..CASES {
        let n = rng.gen_range(1usize..30);
        let mut events: Vec<(u64, u32)> = (0..n)
            .map(|_| (rng.gen_range(0u64..1_000_000), rng.gen_range(1u32..5)))
            .collect();
        let window = rng.gen_range(1u64..500_000);
        let mut unbounded = MalcTable::new(0);
        let mut windowed = MalcTable::new(window);
        let node = NodeId(1);
        events.sort_by_key(|e| e.0);
        for (t, w) in &events {
            unbounded.record(node, *w, Micros(*t));
            windowed.record(node, *w, Micros(*t));
        }
        let now = Micros(events.last().unwrap().0);
        assert!(windowed.value(node, now) <= unbounded.value(node, now));
        let total: u32 = events.iter().map(|(_, w)| w).sum();
        assert_eq!(unbounded.value(node, now), total);
    }
}

// ----------------------------------------------------------------------
// Alert buffer: isolation happens exactly at γ distinct accusers.
// ----------------------------------------------------------------------

#[test]
fn alerts_isolate_exactly_at_gamma() {
    let mut rng = Pcg32::seed_from_u64(0x616c_7274);
    for _ in 0..CASES {
        let gamma = rng.gen_range(1usize..6);
        let n = rng.gen_range(1usize..20);
        let accusers: Vec<NodeId> = (0..n).map(|_| arb_node(&mut rng)).collect();
        let mut buf = AlertBuffer::new(gamma);
        let suspect = NodeId(99);
        let mut distinct = std::collections::BTreeSet::new();
        for g in &accusers {
            let before = distinct.len();
            distinct.insert(*g);
            let outcome = buf.record(suspect, *g);
            match outcome {
                AlertOutcome::Isolate => assert_eq!(distinct.len(), gamma),
                AlertOutcome::Counted { got, needed } => {
                    assert_eq!(needed, gamma);
                    assert_eq!(got, distinct.len());
                    assert!(got < gamma);
                }
                AlertOutcome::Duplicate => assert_eq!(distinct.len(), before),
                AlertOutcome::AlreadyIsolated => assert!(distinct.len() >= gamma),
            }
        }
        assert_eq!(buf.is_isolated(suspect), distinct.len() >= gamma);
    }
}

// ----------------------------------------------------------------------
// Neighbor table: revocation is sticky and excludes from all queries.
// ----------------------------------------------------------------------

#[test]
fn revocation_is_sticky() {
    let mut rng = Pcg32::seed_from_u64(0x7265_766f);
    for _ in 0..CASES {
        let n = rng.gen_range(1usize..10);
        let neighbors: std::collections::BTreeSet<u32> =
            (0..n).map(|_| rng.gen_range(1u32..32)).collect();
        let mut t = NeighborTable::new(NodeId(0));
        let ids: Vec<NodeId> = neighbors.iter().map(|&n| NodeId(n)).collect();
        for &n in &ids {
            t.add_neighbor(n);
        }
        let victim = *rng.choose(&ids).expect("non-empty");
        t.revoke(victim);
        t.add_neighbor(victim); // must not resurrect
        assert!(t.is_revoked(victim));
        assert!(!t.is_active_neighbor(victim));
        assert!(t.active_neighbors().all(|n| n != victim));
        assert!(!t.link_plausible(NodeId(0), victim));
    }
}

#[test]
fn link_plausibility_is_consistent_with_stored_lists() {
    let mut rng = Pcg32::seed_from_u64(0x6c69_6e6b);
    for _ in 0..CASES {
        let n = rng.gen_range(0usize..10);
        let list: std::collections::BTreeSet<u32> =
            (0..n).map(|_| rng.gen_range(2u32..32)).collect();
        let probe = rng.gen_range(2u32..32);
        let mut t = NeighborTable::new(NodeId(0));
        t.add_neighbor(NodeId(1));
        t.set_neighbor_list(NodeId(1), list.iter().map(|&n| NodeId(n)));
        let expected = list.contains(&probe);
        assert_eq!(t.link_plausible(NodeId(probe), NodeId(1)), expected);
    }
}

// ----------------------------------------------------------------------
// Config: accusation counts are consistent with the weights.
// ----------------------------------------------------------------------

#[test]
fn accusation_counts_cover_threshold() {
    let mut rng = Pcg32::seed_from_u64(0x6366_6721);
    for _ in 0..CASES {
        let vf = rng.gen_range(1u32..10);
        let vd = rng.gen_range(1u32..10);
        let ct = rng.gen_range(1u32..50);
        let cfg = Config {
            fabrication_weight: vf,
            drop_weight: vd,
            malc_threshold: ct,
            ..Config::default()
        };
        // k events of weight w must reach the threshold, k-1 must not.
        let k = cfg.fabrications_to_accuse();
        assert!(k * vf >= ct);
        assert!(k == 0 || (k - 1) * vf < ct);
        let kd = cfg.drops_to_accuse();
        assert!(kd * vd >= ct);
        assert!(kd == 0 || (kd - 1) * vd < ct);
    }
}

// ----------------------------------------------------------------------
// Model-based: random operation sequences against straightforward
// reference models of the documented semantics.
// ----------------------------------------------------------------------

/// Reference watch buffer: a plain vector of rows, oldest first, every
/// operation a linear scan.
#[derive(Default)]
struct WatchModel {
    rows: Vec<(NodeId, PacketSig, Option<NodeId>, Micros, Micros, bool)>,
    evictions: u64,
}

impl WatchModel {
    fn note(
        &mut self,
        cap: usize,
        prev: NodeId,
        sig: PacketSig,
        exp: Option<NodeId>,
        deadline: Micros,
        armed: Micros,
    ) {
        if self
            .rows
            .iter()
            .any(|r| r.0 == prev && r.1 == sig && r.2 == exp)
        {
            return;
        }
        if self.rows.len() == cap {
            self.rows.remove(0);
            self.evictions += 1;
        }
        self.rows.push((prev, sig, exp, deadline, armed, false));
    }

    fn confirm(&mut self, prev: NodeId, sig: &PacketSig, fwd: NodeId) -> bool {
        let mut found = false;
        for r in &mut self.rows {
            if r.0 == prev && r.1 == *sig {
                found = true;
                if r.2 == Some(fwd) {
                    r.5 = true;
                }
            }
        }
        found
    }

    fn expire(&mut self, now: Micros) -> Vec<(NodeId, PacketSig, Micros)> {
        let accused = self
            .rows
            .iter()
            .filter(|r| r.3 <= now && !r.5)
            .filter_map(|r| r.2.map(|a| (a, r.1, r.4)))
            .collect();
        self.rows.retain(|r| r.3 > now);
        accused
    }
}

/// A small signature pool, so duplicates and repeated lookups are common.
fn pool_sig(rng: &mut Pcg32) -> PacketSig {
    PacketSig {
        kind: if rng.gen_bool(0.5) {
            PacketKind::RouteRequest
        } else {
            PacketKind::RouteReply
        },
        origin: NodeId(rng.gen_range(0u32..3)),
        target: NodeId(rng.gen_range(0u32..3)),
        seq: rng.gen_range(0u64..4),
    }
}

#[test]
fn watch_buffer_matches_the_vec_model() {
    let mut rng = Pcg32::seed_from_u64(0x7761_746d);
    for case in 0..CASES * 4 {
        let cap = rng.gen_range(1usize..12);
        // Half the cases arm every entry at `now + δ` like the monitor; the
        // rest draw each deadline at random, never below the last one.
        let fixed_delta = case % 2 == 0;
        let mut buf = WatchBuffer::new(cap);
        let mut model = WatchModel::default();
        let mut now = 0u64;
        let mut last_deadline = 0u64;
        let node = |rng: &mut Pcg32| NodeId(rng.gen_range(0u32..5));
        for _ in 0..200 {
            now += rng.gen_range(0u64..20);
            match rng.gen_range(0u32..10) {
                0..=3 => {
                    let (prev, sig) = (node(&mut rng), pool_sig(&mut rng));
                    let exp = rng.gen_bool(0.7).then(|| node(&mut rng));
                    let delta = if fixed_delta {
                        50
                    } else {
                        rng.gen_range(0u64..100)
                    };
                    last_deadline = last_deadline.max(now + delta);
                    let deadline = Micros(last_deadline);
                    buf.note_transmission(prev, sig, exp, deadline, Micros(now));
                    model.note(cap, prev, sig, exp, deadline, Micros(now));
                }
                4..=5 => {
                    let (prev, sig, fwd) = (node(&mut rng), pool_sig(&mut rng), node(&mut rng));
                    assert_eq!(
                        buf.confirm_forward(prev, &sig, fwd),
                        model.confirm(prev, &sig, fwd)
                    );
                }
                6..=7 => assert_eq!(buf.expire(Micros(now)), model.expire(Micros(now))),
                8 => {
                    let (fwd, sig) = (node(&mut rng), pool_sig(&mut rng));
                    buf.absolve(fwd, &sig);
                    for r in &mut model.rows {
                        if r.2 == Some(fwd) && r.1 == sig {
                            r.5 = true;
                        }
                    }
                }
                _ => {
                    let prev = node(&mut rng);
                    buf.cancel_expectations_from(prev);
                    model.rows.retain(|r| r.0 != prev || r.2.is_none());
                }
            }
            let rows: Vec<_> = buf
                .entries()
                .map(|e| {
                    let (prev, sig, exp) = (e.prev, e.sig, e.expected_forwarder);
                    (prev, sig, exp, e.deadline, e.armed_at, e.satisfied())
                })
                .collect();
            assert_eq!(rows, model.rows, "case {case}");
            assert_eq!(buf.len(), model.rows.len());
            assert_eq!(buf.evictions(), model.evictions);
        }
        assert_eq!(buf.expire(Micros(u64::MAX)), model.expire(Micros(u64::MAX)));
        assert!(buf.is_empty());
    }
}

#[test]
fn neighbor_table_matches_the_btree_model() {
    use std::collections::{BTreeMap, BTreeSet};
    let mut rng = Pcg32::seed_from_u64(0x6e74_6d64);
    let me = NodeId(0);
    for case in 0..CASES {
        let mut t = NeighborTable::new(me);
        let mut first: BTreeMap<NodeId, bool> = BTreeMap::new(); // id -> revoked
        let mut second: BTreeMap<NodeId, BTreeSet<NodeId>> = BTreeMap::new();
        let node = |rng: &mut Pcg32| NodeId(rng.gen_range(0u32..12));
        for _ in 0..120 {
            match rng.gen_range(0u32..4) {
                0 => {
                    let n = NodeId(rng.gen_range(1u32..12));
                    t.add_neighbor(n);
                    first.entry(n).or_insert(false);
                }
                1 | 2 => {
                    // Unsorted, with repeats; often a re-announcement of a
                    // different length.
                    let b = node(&mut rng);
                    let len = rng.gen_range(0usize..10);
                    let list: Vec<NodeId> = (0..len).map(|_| node(&mut rng)).collect();
                    let stored = t.set_neighbor_list(b, list.iter().copied());
                    assert_eq!(stored, first.contains_key(&b));
                    if stored {
                        second.insert(b, list.into_iter().collect());
                    }
                }
                _ => {
                    // Unknown ids (the owner included) are recorded too.
                    let n = node(&mut rng);
                    t.revoke(n);
                    first.insert(n, true);
                }
            }
            for n in (0..12).map(NodeId) {
                assert_eq!(t.is_neighbor(n), first.contains_key(&n), "case {case}");
                assert_eq!(t.is_revoked(n), first.get(&n) == Some(&true));
                assert_eq!(t.is_active_neighbor(n), first.get(&n) == Some(&false));
                let list = t.neighbor_list_of(n).map(<[NodeId]>::to_vec);
                let model_list = second.get(&n).map(|s| s.iter().copied().collect());
                assert_eq!(list, model_list);
                for p in (0..12).map(NodeId) {
                    let plausible = first.get(&n) == Some(&false)
                        && (p == me || second.get(&n).is_some_and(|s| s.contains(&p)));
                    assert_eq!(t.link_plausible(p, n), plausible);
                    let guard = p != n
                        && (p == me || first.contains_key(&p))
                        && (n == me || first.contains_key(&n));
                    assert_eq!(t.is_guard_of(p, n), guard);
                }
            }
            let active: Vec<NodeId> = first.iter().filter(|(_, &r)| !r).map(|(&n, _)| n).collect();
            assert_eq!(t.active_neighbors().collect::<Vec<_>>(), active);
            assert_eq!(t.len(), first.len());
            let ids: usize = second.values().map(BTreeSet::len).sum();
            assert_eq!(t.storage_bytes(), first.len() * 5 + ids * 4);
        }
    }
}

#[test]
fn malc_running_sum_matches_a_full_recompute() {
    use std::collections::BTreeMap;
    let mut rng = Pcg32::seed_from_u64(0x6d61_6c73);
    for case in 0..CASES {
        let window = if case % 4 == 0 {
            0
        } else {
            rng.gen_range(1u64..200)
        };
        let mut t = MalcTable::new(window);
        let mut logs: BTreeMap<NodeId, Vec<(u64, u32)>> = BTreeMap::new();
        let mut now = 0u64;
        for _ in 0..200 {
            now += rng.gen_range(0u64..30);
            let node = NodeId(rng.gen_range(0u32..4));
            if rng.gen_bool(0.05) {
                t.clear(node);
                logs.remove(&node);
                continue;
            }
            let weight = rng.gen_range(1u32..5);
            let log = logs.entry(node).or_default();
            log.push((now, weight));
            let cutoff = now.saturating_sub(window);
            if window > 0 {
                log.retain(|&(t, _)| t >= cutoff);
            }
            let full: u32 = log.iter().map(|&(_, w)| w).sum();
            assert_eq!(t.record(node, weight, Micros(now)), full, "case {case}");
            for probe in [now, now + window / 2, now + window + 1] {
                let cutoff = probe.saturating_sub(window);
                for (&n, log) in &logs {
                    let full: u32 = log
                        .iter()
                        .filter(|&&(t, _)| window == 0 || t >= cutoff)
                        .map(|&(_, w)| w)
                        .sum();
                    assert_eq!(t.value(n, Micros(probe)), full, "case {case}");
                }
            }
        }
    }
}

// ----------------------------------------------------------------------
// One lookup per frame: the admission verdict `observe_packet` takes
// from the observation's own lookups equals a fresh `admit` right after,
// including for frames that get their sender accused.
// ----------------------------------------------------------------------

#[test]
fn fused_admission_matches_observe_then_admit() {
    use liteworp::monitor::PacketObs;
    use liteworp::prelude::{Effect, Liteworp};
    let mut rng = Pcg32::seed_from_u64(0x6675_7365);
    let me = NodeId(0);
    // Low thresholds so accusations (and so revocations mid-stream) are
    // frequent: one fabrication or two drops accuse.
    let config = Config {
        fabrication_weight: 2,
        drop_weight: 1,
        malc_threshold: 2,
        watch_timeout_us: 5_000,
        collision_grace_us: 0,
        ..Config::default()
    };
    let (mut accused_senders, mut rejected, mut accepted) = (0, 0, 0);
    for case in 0..CASES {
        let mut lw = Liteworp::new(config.clone(), KeyStore::new(case, me));
        let node = |rng: &mut Pcg32| NodeId(rng.gen_range(0u32..14));
        for n in 1..10 {
            if rng.gen_bool(0.8) {
                lw.table_mut().add_neighbor(NodeId(n));
            }
        }
        for n in 0..12 {
            let len = rng.gen_range(0usize..8);
            let list: Vec<NodeId> = (0..len).map(|_| node(&mut rng)).collect();
            lw.table_mut().set_neighbor_list(NodeId(n), list);
        }
        if rng.gen_bool(0.3) {
            lw.table_mut().revoke(node(&mut rng));
        }
        let pool: Vec<PacketSig> = (0..6).map(|_| arb_sig(&mut rng)).collect();
        let mut now = 0u64;
        for step in 0..200 {
            now += rng.gen_range(0u64..2_000);
            if step % 25 == 24 {
                let mut other = lw.clone();
                assert_eq!(lw.expire(Micros(now)), other.expire(Micros(now)));
                continue;
            }
            let sender = node(&mut rng);
            let obs = PacketObs {
                sender,
                claimed_prev: rng.gen_bool(0.7).then(|| node(&mut rng)),
                link_dst: rng.gen_bool(0.4).then(|| node(&mut rng)),
                sig: pool[rng.gen_range(0..pool.len())],
                terminal: rng.gen_bool(0.1),
            };
            let (effects, fused) = lw.observe_packet(&obs, Micros(now));
            let verdict = lw.admit(obs.sender, obs.claimed_prev);
            assert_eq!(fused, verdict, "case {case} step {step}: {obs:?}");
            if effects
                .iter()
                .any(|e| matches!(e, Effect::Isolated { suspect } if *suspect == sender))
            {
                accused_senders += 1;
            }
            if fused.is_accept() {
                accepted += 1;
            } else {
                rejected += 1;
            }
        }
    }
    assert!(
        accused_senders > 20,
        "{accused_senders} frames accused their sender"
    );
    assert!(accepted > 100 && rejected > 100, "{accepted} / {rejected}");
}
