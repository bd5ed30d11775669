//! The shared wireless medium: in-flight transmissions, carrier sense, and
//! collision determination.
//!
//! The model is the classic disc model with per-receiver collisions:
//!
//! * a transmission from position `o` at effective range `R` is *receivable*
//!   by nodes within `R` of `o`;
//! * a receiver loses a frame if any **other** transmission whose
//!   interference disc covers the receiver overlaps it in time (this
//!   includes the hidden-terminal case), or if the receiver's own radio was
//!   transmitting at any point during the frame (half duplex);
//! * carrier sense at a prospective transmitter reports busy while any
//!   transmission's interference disc covers it.

use crate::field::{NodeId, Position};
use crate::time::{SimDuration, SimTime};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

/// One transmission on the air (or recently completed).
#[derive(Debug, Clone, Copy)]
pub struct TxRecord {
    /// Unique, monotonically increasing transmission id.
    pub seq: u64,
    /// Transmitting node.
    pub transmitter: NodeId,
    /// Where the transmitter is.
    pub origin: Position,
    /// When the first bit left the antenna.
    pub start: SimTime,
    /// When the last bit leaves the antenna.
    pub end: SimTime,
    /// Effective reception range in meters (already includes any
    /// high-power multiplier).
    pub range: f64,
}

impl TxRecord {
    fn overlaps(&self, start: SimTime, end: SimTime) -> bool {
        self.start < end && self.end > start
    }
}

/// A transmission that overlaps another one in time: what a receiver of
/// that other frame needs to know to decide whether it was destroyed.
#[derive(Debug, Clone, Copy)]
struct Interferer {
    transmitter: NodeId,
    origin: Position,
    /// Interference disc radius (`range * interference_factor`).
    reach: f64,
}

/// The collision state of one transmission, gathered once by
/// [`Medium::gather`] and then queried once per receiver.
///
/// The buffer is reusable: `gather` clears it, so a simulator keeps one
/// and allocates nothing per frame in steady state.
#[derive(Debug, Clone, Default)]
pub struct Interference {
    others: Vec<Interferer>,
}

impl Interference {
    /// Whether the frame is lost at `receiver`, located at `pos`: the
    /// receiver's own radio transmitted during it (half duplex), or another
    /// overlapping transmission's interference disc covers `pos`.
    pub fn collides(&self, receiver: NodeId, pos: Position) -> bool {
        self.others
            .iter()
            .any(|o| o.transmitter == receiver || pos.distance_to(&o.origin) <= o.reach)
    }
}

/// Tracks transmissions long enough to answer collision queries.
///
/// Live records sit in a ring indexed by their monotonic `seq` (O(1)
/// lookup), with a min-heap by end time for amortized pruning. Queries
/// scan the ring: pruning keeps it to the records that can still overlap
/// an in-flight frame, a dozen or so even in a 10⁵-node field, so a scan
/// is cheaper than any spatial index over them. `busy_until` (a max) and
/// [`Interference::collides`] (an any) are order-independent
/// aggregations over the records.
#[derive(Debug, Default)]
pub struct Medium {
    /// Live (and recently ended) transmissions: slot `i` holds seq
    /// `first_seq + i`, or `None` once pruned. Leading `None`s are popped,
    /// so the ring spans only the seqs between the oldest live record and
    /// the newest one.
    ring: VecDeque<Option<TxRecord>>,
    /// The seq of `ring[0]`; also the next acceptable seq while the ring
    /// is empty.
    first_seq: u64,
    /// Min-heap of `(end, seq)` driving [`Medium::prune`].
    by_end: BinaryHeap<Reverse<(SimTime, u64)>>,
    max_airtime: SimDuration,
    interference_factor: f64,
}

impl Medium {
    /// Creates a medium with the given interference-range factor
    /// (see [`crate::radio::RadioConfig::interference_factor`]).
    ///
    /// # Panics
    ///
    /// Panics if `interference_factor < 1.0`.
    pub fn new(interference_factor: f64) -> Self {
        assert!(
            interference_factor >= 1.0,
            "interference factor must be >= 1, got {interference_factor}"
        );
        Medium {
            interference_factor,
            ..Medium::default()
        }
    }

    /// The interference disc radius of a record.
    fn reach(&self, record: &TxRecord) -> f64 {
        record.range * self.interference_factor
    }

    /// Registers a transmission that is starting now. Seqs are expected
    /// to be dense, as the simulator's are: each skipped seq costs one
    /// empty ring slot until the records before it are pruned.
    ///
    /// # Panics
    ///
    /// Panics if `record.seq` is not greater than every seq begun before.
    pub fn begin(&mut self, record: TxRecord) {
        let next = self.first_seq + self.ring.len() as u64;
        assert!(
            record.seq >= next,
            "transmission seq {} is not monotonic (next is {next})",
            record.seq
        );
        if self.ring.is_empty() {
            self.first_seq = record.seq;
        } else {
            self.ring
                .resize((record.seq - self.first_seq) as usize, None);
        }
        let airtime = record.end.saturating_since(record.start);
        if airtime > self.max_airtime {
            self.max_airtime = airtime;
        }
        self.by_end.push(Reverse((record.end, record.seq)));
        self.ring.push_back(Some(record));
    }

    /// Looks up a transmission by sequence number.
    pub fn get(&self, seq: u64) -> Option<&TxRecord> {
        let slot = seq.checked_sub(self.first_seq)?;
        self.ring.get(slot as usize)?.as_ref()
    }

    /// Carrier sense: if the channel is busy at `pos` at time `at`, returns
    /// the time the last currently-audible transmission ends.
    pub fn busy_until(&self, pos: Position, at: SimTime) -> Option<SimTime> {
        let mut latest: Option<SimTime> = None;
        for r in self.ring.iter().flatten() {
            if r.start <= at
                && r.end > at
                && pos.distance_to(&r.origin) <= self.reach(r)
                && latest.is_none_or(|l| r.end > l)
            {
                latest = Some(r.end);
            }
        }
        latest
    }

    /// Gathers, into `out`, every other live transmission that overlaps
    /// transmission `seq` in time: the ones that could destroy it at some
    /// receiver. Each receiver then asks [`Interference::collides`], which
    /// applies the disc predicate, so the medium is searched once per
    /// frame instead of once per receiver.
    ///
    /// # Panics
    ///
    /// Panics if `seq` is unknown (already pruned or never begun).
    pub fn gather(&self, seq: u64, out: &mut Interference) {
        out.others.clear();
        let subject = *self
            .get(seq)
            // lint: allow(P002) invariant: gathered only for live transmissions
            .expect("collision gather for unknown transmission");
        for r in self.ring.iter().flatten() {
            if r.seq != seq && r.overlaps(subject.start, subject.end) {
                out.others.push(Interferer {
                    transmitter: r.transmitter,
                    origin: r.origin,
                    reach: self.reach(r),
                });
            }
        }
    }

    /// Discards records that can no longer affect any collision query.
    ///
    /// A record `B` is needed only while some in-flight transmission `A`
    /// could overlap it; since `A.end − A.start ≤ max_airtime`, any `B`
    /// with `B.end ≤ now − max_airtime` is unreachable. The end-time heap
    /// makes this O(pruned · log live) instead of a full scan.
    pub fn prune(&mut self, now: SimTime) {
        let keep_span = self.max_airtime + SimDuration::from_micros(1);
        let cutoff = SimTime::ZERO + now.saturating_since(SimTime::ZERO + keep_span);
        while let Some(&Reverse((end, seq))) = self.by_end.peek() {
            if end > cutoff {
                break;
            }
            self.by_end.pop();
            let slot = (seq - self.first_seq) as usize;
            self.ring[slot] = None;
        }
        while let Some(None) = self.ring.front() {
            self.ring.pop_front();
            self.first_seq += 1;
        }
    }

    /// Number of records currently retained (for tests / diagnostics).
    pub fn record_count(&self) -> usize {
        self.ring.iter().flatten().count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One receiver's verdict for transmission `seq`, via the gather.
    fn collides(m: &Medium, seq: u64, receiver: NodeId, pos: Position) -> bool {
        let mut g = Interference::default();
        m.gather(seq, &mut g);
        g.collides(receiver, pos)
    }

    fn rec(seq: u64, node: u32, x: f64, start: u64, end: u64, range: f64) -> TxRecord {
        TxRecord {
            seq,
            transmitter: NodeId(node),
            origin: Position::new(x, 0.0),
            start: SimTime::from_micros(start),
            end: SimTime::from_micros(end),
            range,
        }
    }

    #[test]
    fn busy_while_in_range_transmission_ongoing() {
        let mut m = Medium::new(1.0);
        m.begin(rec(1, 0, 0.0, 10, 20, 30.0));
        let p = Position::new(25.0, 0.0);
        assert_eq!(
            m.busy_until(p, SimTime::from_micros(15)),
            Some(SimTime::from_micros(20))
        );
        // Before start and at/after end: idle.
        assert_eq!(m.busy_until(p, SimTime::from_micros(9)), None);
        assert_eq!(m.busy_until(p, SimTime::from_micros(20)), None);
        // Out of range: idle.
        let far = Position::new(40.0, 0.0);
        assert_eq!(m.busy_until(far, SimTime::from_micros(15)), None);
    }

    #[test]
    fn busy_until_reports_latest_end() {
        let mut m = Medium::new(1.0);
        m.begin(rec(1, 0, 0.0, 10, 20, 30.0));
        m.begin(rec(2, 1, 5.0, 12, 40, 30.0));
        let p = Position::new(10.0, 0.0);
        assert_eq!(
            m.busy_until(p, SimTime::from_micros(15)),
            Some(SimTime::from_micros(40))
        );
    }

    #[test]
    fn overlapping_in_range_transmissions_collide() {
        let mut m = Medium::new(1.0);
        m.begin(rec(1, 0, 0.0, 10, 20, 30.0));
        m.begin(rec(2, 1, 10.0, 15, 25, 30.0));
        // Receiver at x=5 hears both: collision for both frames.
        let p = Position::new(5.0, 0.0);
        assert!(collides(&m, 1, NodeId(9), p));
        assert!(collides(&m, 2, NodeId(9), p));
    }

    #[test]
    fn disjoint_times_do_not_collide() {
        let mut m = Medium::new(1.0);
        m.begin(rec(1, 0, 0.0, 10, 20, 30.0));
        m.begin(rec(2, 1, 10.0, 20, 30, 30.0)); // starts exactly at end
        let p = Position::new(5.0, 0.0);
        assert!(!collides(&m, 1, NodeId(9), p));
        assert!(!collides(&m, 2, NodeId(9), p));
    }

    #[test]
    fn hidden_terminal_collides_at_receiver_only() {
        // Transmitters at x=0 and x=50 cannot hear each other (range 30),
        // but a receiver at x=25 is inside both discs: hidden terminal.
        let mut m = Medium::new(1.0);
        m.begin(rec(1, 0, 0.0, 10, 20, 30.0));
        m.begin(rec(2, 1, 50.0, 12, 22, 30.0));
        let mid = Position::new(25.0, 0.0);
        assert!(collides(&m, 1, NodeId(9), mid));
        // A receiver near x=0 only hears the first: no collision there.
        let near = Position::new(2.0, 0.0);
        assert!(!collides(&m, 1, NodeId(9), near));
    }

    #[test]
    fn half_duplex_blocks_own_reception() {
        let mut m = Medium::new(1.0);
        m.begin(rec(1, 0, 0.0, 10, 20, 30.0));
        // Node 7 transmits far away (out of interference range of anyone
        // near x=0) but overlapping in time.
        m.begin(rec(2, 7, 500.0, 12, 14, 30.0));
        let p = Position::new(5.0, 0.0);
        // Another node at the same spot is fine...
        assert!(!collides(&m, 1, NodeId(9), p));
        // ...but node 7 itself was transmitting: it misses the frame.
        assert!(collides(&m, 1, NodeId(7), p));
    }

    #[test]
    fn interference_factor_extends_collision_reach() {
        let mut m = Medium::new(2.0);
        m.begin(rec(1, 0, 0.0, 10, 20, 30.0));
        m.begin(rec(2, 1, 100.0, 12, 22, 30.0));
        // x=55 is outside reception range of tx2 (30 m) but inside its
        // 60 m interference disc.
        let p = Position::new(55.0, 0.0);
        assert!(collides(&m, 1, NodeId(9), p));
    }

    #[test]
    fn prune_keeps_recent_records() {
        let mut m = Medium::new(1.0);
        m.begin(rec(1, 0, 0.0, 0, 10, 30.0));
        m.begin(rec(2, 1, 0.0, 100, 110, 30.0));
        m.prune(SimTime::from_micros(110));
        // Record 1 ended at 10; horizon = 110 - 10 - 1 = 99 > 10: dropped.
        assert_eq!(m.record_count(), 1);
        assert!(m.get(1).is_none());
        assert!(m.get(2).is_some());
    }

    #[test]
    #[should_panic(expected = "unknown transmission")]
    fn gather_panics_for_unknown_seq() {
        Medium::new(1.0).gather(99, &mut Interference::default());
    }

    #[test]
    #[should_panic(expected = "not monotonic")]
    fn begin_rejects_a_reused_seq() {
        let mut m = Medium::new(1.0);
        m.begin(rec(5, 0, 0.0, 0, 10, 30.0));
        m.begin(rec(5, 1, 0.0, 0, 10, 30.0));
    }

    #[test]
    fn ring_skips_seq_gaps_and_drops_pruned_heads() {
        let mut m = Medium::new(1.0);
        m.begin(rec(3, 0, 0.0, 0, 10, 30.0));
        m.begin(rec(7, 1, 0.0, 5, 200, 30.0));
        assert!(m.get(4).is_none(), "a gap is not a record");
        assert_eq!(m.get(7).map(|r| r.transmitter), Some(NodeId(1)));
        m.prune(SimTime::from_micros(300));
        assert!(m.get(3).is_none());
        assert!(m.get(7).is_some(), "long record outlives the short one");
        m.begin(rec(8, 2, 0.0, 300, 310, 30.0));
        assert_eq!(m.record_count(), 2);
    }
}
