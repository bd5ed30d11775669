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
use crate::grid::Buckets;
use crate::time::{SimDuration, SimTime};
use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap};

/// One transmission on the air (or recently completed).
#[derive(Debug, Clone)]
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

/// Tracks transmissions long enough to answer collision queries.
///
/// Internally the live records are indexed four ways so no query walks the
/// full record set: by sequence number (lookup), by end time (amortized
/// pruning), by transmitter (the distance-independent half-duplex check),
/// and — when constructed via [`Medium::with_geometry`] — by origin cell in
/// a spatial `Buckets` grid (carrier sense and interference fan-in). Every
/// spatial query still applies the exact disc predicate the pre-index code
/// used, so answers are set-identical to a linear scan; `busy_until` (a max)
/// and `collides` (an any) are order-independent aggregations on top.
#[derive(Debug, Default)]
pub struct Medium {
    /// Live (and recently ended) transmissions keyed by `seq`. Iteration is
    /// ascending `seq` = insertion order, matching the former `Vec` scan.
    live: BTreeMap<u64, TxRecord>,
    /// Min-heap of `(end, seq)` driving [`Medium::prune`].
    by_end: BinaryHeap<Reverse<(SimTime, u64)>>,
    /// Live transmission seqs per transmitter, for the half-duplex check.
    by_node: BTreeMap<NodeId, Vec<u64>>,
    /// Spatial index over record origins; `None` means queries fall back to
    /// scanning all live records (geometry-free construction via
    /// [`Medium::new`], used by unit tests).
    buckets: Option<Buckets<u64>>,
    /// Multiset of live interference radii (`range * factor`, stored as
    /// `f64` bits — positive finite, so bit order = numeric order). The
    /// maximum bounds the candidate-cell ring for spatial queries.
    reaches: BTreeMap<u64, usize>,
    max_airtime: SimDuration,
    interference_factor: f64,
}

impl Medium {
    /// Creates a medium with the given interference-range factor
    /// (see [`crate::radio::RadioConfig::interference_factor`]).
    ///
    /// Spatial queries scan all live records; prefer
    /// [`Medium::with_geometry`] when the deployment geometry is known.
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

    /// Creates a medium whose transmissions are spatially indexed over a
    /// `side`-by-`side` field with grid cells of `cell` meters (normally
    /// the nominal radio range). Query results are identical to
    /// [`Medium::new`]; only the work per query changes.
    ///
    /// # Panics
    ///
    /// Panics if `interference_factor < 1.0`, or `side`/`cell` is not
    /// positive.
    pub fn with_geometry(interference_factor: f64, side: f64, cell: f64) -> Self {
        let mut m = Medium::new(interference_factor);
        m.buckets = Some(Buckets::new(side, cell));
        m
    }

    /// The interference disc radius of a record.
    fn reach(&self, record: &TxRecord) -> f64 {
        record.range * self.interference_factor
    }

    /// Registers a transmission that is starting now.
    pub fn begin(&mut self, record: TxRecord) {
        let airtime = record.end.saturating_since(record.start);
        if airtime > self.max_airtime {
            self.max_airtime = airtime;
        }
        if let Some(b) = &mut self.buckets {
            b.insert(record.origin, record.seq);
        }
        let reach_bits = self.reach(&record).to_bits();
        *self.reaches.entry(reach_bits).or_insert(0) += 1;
        self.by_node
            .entry(record.transmitter)
            .or_default()
            .push(record.seq);
        self.by_end.push(Reverse((record.end, record.seq)));
        self.live.insert(record.seq, record);
    }

    /// Looks up a transmission by sequence number.
    pub fn get(&self, seq: u64) -> Option<&TxRecord> {
        self.live.get(&seq)
    }

    /// Visits every live record whose interference disc could cover `pos`:
    /// a superset of the true matches (callers apply the exact predicate).
    /// Uses the spatial index when present, bounded by the largest live
    /// interference radius; otherwise scans all records.
    fn for_each_near(&self, pos: Position, mut f: impl FnMut(&TxRecord)) {
        match (&self.buckets, self.reaches.keys().next_back()) {
            (Some(b), Some(&reach_bits)) => {
                b.for_each_candidate(pos, f64::from_bits(reach_bits), |seq| {
                    if let Some(r) = self.live.get(&seq) {
                        f(r);
                    }
                });
            }
            (Some(_), None) => {} // nothing on the air
            (None, _) => {
                for r in self.live.values() {
                    f(r);
                }
            }
        }
    }

    /// Carrier sense: if the channel is busy at `pos` at time `at`, returns
    /// the time the last currently-audible transmission ends.
    pub fn busy_until(&self, pos: Position, at: SimTime) -> Option<SimTime> {
        let mut latest: Option<SimTime> = None;
        self.for_each_near(pos, |r| {
            if r.start <= at
                && r.end > at
                && pos.distance_to(&r.origin) <= r.range * self.interference_factor
                && latest.is_none_or(|l| r.end > l)
            {
                latest = Some(r.end);
            }
        });
        latest
    }

    /// Whether the reception of transmission `seq` at `receiver` (located
    /// at `pos`) is destroyed by a concurrent transmission or by the
    /// receiver's own radio being busy (half duplex).
    ///
    /// # Panics
    ///
    /// Panics if `seq` is unknown (already pruned or never begun).
    pub fn collides(&self, seq: u64, receiver: NodeId, pos: Position) -> bool {
        let subject = self
            .get(seq)
            // lint: allow(P002) invariant: queried only for live transmissions
            .expect("collision query for unknown transmission");
        let (start, end) = (subject.start, subject.end);
        // Half duplex: the receiver's own transmissions block reception
        // regardless of distance, so this arm is answered from the
        // per-transmitter index, not the spatial one.
        if let Some(own) = self.by_node.get(&receiver) {
            let busy = own
                .iter()
                .any(|&s| s != seq && self.live.get(&s).is_some_and(|r| r.overlaps(start, end)));
            if busy {
                return true;
            }
        }
        let mut hit = false;
        self.for_each_near(pos, |other| {
            if !hit
                && other.seq != seq
                && other.overlaps(start, end)
                && pos.distance_to(&other.origin) <= other.range * self.interference_factor
            {
                hit = true;
            }
        });
        hit
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
            let Some(r) = self.live.remove(&seq) else {
                continue;
            };
            if let Some(b) = &mut self.buckets {
                b.remove(r.origin, seq);
            }
            let reach_bits = self.reach(&r).to_bits();
            if let Some(count) = self.reaches.get_mut(&reach_bits) {
                *count -= 1;
                if *count == 0 {
                    self.reaches.remove(&reach_bits);
                }
            }
            if let Some(own) = self.by_node.get_mut(&r.transmitter) {
                own.retain(|&s| s != seq);
                if own.is_empty() {
                    self.by_node.remove(&r.transmitter);
                }
            }
        }
    }

    /// Number of records currently retained (for tests / diagnostics).
    pub fn record_count(&self) -> usize {
        self.live.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
        assert!(m.collides(1, NodeId(9), p));
        assert!(m.collides(2, NodeId(9), p));
    }

    #[test]
    fn disjoint_times_do_not_collide() {
        let mut m = Medium::new(1.0);
        m.begin(rec(1, 0, 0.0, 10, 20, 30.0));
        m.begin(rec(2, 1, 10.0, 20, 30, 30.0)); // starts exactly at end
        let p = Position::new(5.0, 0.0);
        assert!(!m.collides(1, NodeId(9), p));
        assert!(!m.collides(2, NodeId(9), p));
    }

    #[test]
    fn hidden_terminal_collides_at_receiver_only() {
        // Transmitters at x=0 and x=50 cannot hear each other (range 30),
        // but a receiver at x=25 is inside both discs: hidden terminal.
        let mut m = Medium::new(1.0);
        m.begin(rec(1, 0, 0.0, 10, 20, 30.0));
        m.begin(rec(2, 1, 50.0, 12, 22, 30.0));
        let mid = Position::new(25.0, 0.0);
        assert!(m.collides(1, NodeId(9), mid));
        // A receiver near x=0 only hears the first: no collision there.
        let near = Position::new(2.0, 0.0);
        assert!(!m.collides(1, NodeId(9), near));
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
        assert!(!m.collides(1, NodeId(9), p));
        // ...but node 7 itself was transmitting: it misses the frame.
        assert!(m.collides(1, NodeId(7), p));
    }

    #[test]
    fn interference_factor_extends_collision_reach() {
        let mut m = Medium::new(2.0);
        m.begin(rec(1, 0, 0.0, 10, 20, 30.0));
        m.begin(rec(2, 1, 100.0, 12, 22, 30.0));
        // x=55 is outside reception range of tx2 (30 m) but inside its
        // 60 m interference disc.
        let p = Position::new(55.0, 0.0);
        assert!(m.collides(1, NodeId(9), p));
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
    fn collides_panics_for_unknown_seq() {
        Medium::new(1.0).collides(99, NodeId(0), Position::default());
    }
}
