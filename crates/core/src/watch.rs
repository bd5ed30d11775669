//! The watch buffer (Section 4.2.1).
//!
//! When a guard overhears a packet travel a link it monitors, it saves the
//! packet's identity with a deadline δ. The buffer answers two questions:
//!
//! * **Fabrication** — a node forwards a packet claiming previous hop `X`;
//!   is there a matching entry proving `X` really transmitted it? If not,
//!   the forwarder fabricated the packet.
//! * **Drop** — an entry whose expected forwarder never forwarded before
//!   the deadline convicts that forwarder of dropping the packet.
//!
//! Unicast transmissions (route replies) carry an *expected forwarder* and
//! participate in drop detection; broadcast transmissions (route-request
//! floods) are recorded for fabrication checking only, because duplicate
//! suppression makes "did not rebroadcast" legitimate for a flood.

use crate::types::{Micros, NodeId, PacketSig};
use std::collections::VecDeque;

/// One watched transmission, as stored in the buffer's ring.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WatchEntry {
    /// The node that transmitted the packet (the link's sending end).
    pub prev: NodeId,
    /// The packet's hop-independent identity.
    pub sig: PacketSig,
    /// For unicast: the receiver that must forward before the deadline.
    /// `None` for broadcasts (fabrication checking only).
    pub expected_forwarder: Option<NodeId>,
    /// Local-clock deadline by which the forward must be overheard.
    pub deadline: Micros,
    /// When the entry was armed (used for collision-grace decisions).
    pub armed_at: Micros,
    satisfied: bool,
}

impl WatchEntry {
    /// Whether the expected forwarder already met its obligation.
    pub fn satisfied(&self) -> bool {
        self.satisfied
    }
}

/// A 32-bit digest of the `(prev, sig)` pair the buffer is searched by.
/// Equal pairs share a fingerprint; unequal ones rarely do, and when they
/// do it costs only a look at the row.
fn fingerprint(prev: NodeId, sig: &PacketSig) -> u32 {
    let ids = (u64::from(prev.0) << 32 | u64::from(sig.origin.0))
        ^ (u64::from(sig.target.0) << 40 | sig.kind as u64);
    let h = (ids ^ sig.seq.wrapping_mul(0x9e37_79b9_7f4a_7c15)).wrapping_mul(0xff51_afd7_ed55_8ccd);
    (h >> 32) as u32
}

/// A bounded buffer of watched transmissions.
///
/// # Example
///
/// ```
/// use liteworp::types::{Micros, NodeId, PacketKind, PacketSig};
/// use liteworp::watch::WatchBuffer;
///
/// let sig = PacketSig {
///     kind: PacketKind::RouteReply,
///     origin: NodeId(9),
///     target: NodeId(1),
///     seq: 5,
/// };
/// let mut buf = WatchBuffer::new(8);
/// // Guard overhears X(=2) send the reply to A(=3), due within 0.5 s.
/// buf.note_transmission(NodeId(2), sig, Some(NodeId(3)), Micros(500_000), Micros(0));
/// // A forwards it, claiming prev = 2: matches, so no fabrication.
/// assert!(buf.confirm_forward(NodeId(2), &sig, NodeId(3)));
/// // Nothing left to expire.
/// assert!(buf.expire(Micros(600_000)).is_empty());
/// ```
///
/// Internally the rows sit in a ring, oldest first, beside one dense
/// column holding a 32-bit fingerprint of each row's `(prev, sig)`.
/// Guards search the buffer on every overheard frame; the duplicate
/// check and [`WatchBuffer::confirm_forward`] scan only that column (a
/// few cache lines at the standing fill) and read a row only when its
/// fingerprint matches. Eviction pops the front. Deadlines must not
/// decrease from one insert to the next (under the monitor every deadline
/// is `now + δ` on a monotone clock), so the rows stay sorted by deadline
/// and [`WatchBuffer::expire`] pops the expired prefix.
#[derive(Debug, Clone)]
pub struct WatchBuffer {
    capacity: usize,
    /// Live rows, oldest first.
    rows: VecDeque<WatchEntry>,
    /// `fingerprint(prev, sig)` of `rows[i]` at index `i`.
    fingerprints: VecDeque<u32>,
    evictions: u64,
}

impl WatchBuffer {
    /// Creates a buffer holding at most `capacity` entries.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "watch buffer needs capacity");
        WatchBuffer {
            capacity,
            rows: VecDeque::new(),
            fingerprints: VecDeque::new(),
            evictions: 0,
        }
    }

    /// Calls `hit` with the index of every row whose fingerprint is `fp`,
    /// oldest first, until it returns `true`; returns whether it did.
    ///
    /// Compares eight fingerprints at a time into a bit mask (a branch-free
    /// loop the compiler turns into vector compares) and visits only the
    /// set bits.
    fn scan(fingerprints: &VecDeque<u32>, fp: u32, mut hit: impl FnMut(usize) -> bool) -> bool {
        let (front, back) = fingerprints.as_slices();
        for (base, part) in [(0, front), (front.len(), back)] {
            let (blocks, rest) = part.as_chunks::<8>();
            for (b, block) in blocks.iter().enumerate() {
                let mut mask = 0u32;
                for (j, &f) in block.iter().enumerate() {
                    mask |= u32::from(f == fp) << j;
                }
                while mask != 0 {
                    if hit(base + b * 8 + mask.trailing_zeros() as usize) {
                        return true;
                    }
                    mask &= mask - 1;
                }
            }
            let at = base + blocks.len() * 8;
            for (j, &f) in rest.iter().enumerate() {
                if f == fp && hit(at + j) {
                    return true;
                }
            }
        }
        false
    }

    /// Keeps the rows `keep` accepts, in order.
    fn retain(&mut self, mut keep: impl FnMut(&WatchEntry) -> bool) {
        let mut w = 0;
        for i in 0..self.rows.len() {
            if keep(&self.rows[i]) {
                self.rows.swap(w, i);
                self.fingerprints.swap(w, i);
                w += 1;
            }
        }
        self.rows.truncate(w);
        self.fingerprints.truncate(w);
    }

    /// The live rows, oldest first.
    pub fn entries(&self) -> impl Iterator<Item = WatchEntry> + '_ {
        self.rows.iter().copied()
    }

    /// Records an overheard transmission of `sig` by `prev`, armed at
    /// `armed_at` (collision-grace decisions read it back).
    ///
    /// `expected_forwarder` is the unicast receiver obliged to forward
    /// (or `None` for a broadcast). If the buffer is full, the oldest
    /// entry is evicted (counted in [`WatchBuffer::evictions`]).
    ///
    /// Duplicate `(prev, sig)` entries are ignored so retransmissions do
    /// not double-arm drop detection.
    ///
    /// # Panics
    ///
    /// Panics if `deadline` is earlier than the newest held entry's:
    /// deadlines must not decrease from one insert to the next.
    pub fn note_transmission(
        &mut self,
        prev: NodeId,
        sig: PacketSig,
        expected_forwarder: Option<NodeId>,
        deadline: Micros,
        armed_at: Micros,
    ) {
        assert!(
            self.rows
                .back()
                .is_none_or(|last| last.deadline <= deadline),
            "watch deadlines must not decrease"
        );
        let fp = fingerprint(prev, &sig);
        let dup = Self::scan(&self.fingerprints, fp, |i| {
            let row = &self.rows[i];
            row.prev == prev && row.sig == sig && row.expected_forwarder == expected_forwarder
        });
        if dup {
            return;
        }
        if self.rows.len() == self.capacity {
            self.rows.pop_front();
            self.fingerprints.pop_front();
            self.evictions += 1;
        }
        self.rows.push_back(WatchEntry {
            prev,
            sig,
            expected_forwarder,
            deadline,
            armed_at,
            satisfied: false,
        });
        self.fingerprints.push_back(fp);
    }

    /// Checks a forward of `sig` by `forwarder` claiming previous hop
    /// `claimed_prev`. Returns `true` when a matching transmission was
    /// overheard (no fabrication); `false` means the forwarder fabricated
    /// the packet.
    ///
    /// A matching unicast entry whose expected forwarder is `forwarder`
    /// is marked satisfied (obligation met). Entries — satisfied or not —
    /// stay until their deadline: link-layer retransmissions of the same
    /// forward and other legitimate forwarders must keep matching.
    pub fn confirm_forward(
        &mut self,
        claimed_prev: NodeId,
        sig: &PacketSig,
        forwarder: NodeId,
    ) -> bool {
        let fp = fingerprint(claimed_prev, sig);
        let mut found = false;
        Self::scan(&self.fingerprints, fp, |i| {
            let row = &mut self.rows[i];
            if row.prev == claimed_prev && row.sig == *sig {
                found = true;
                if row.expected_forwarder == Some(forwarder) {
                    row.satisfied = true;
                }
            }
            false
        });
        found
    }

    /// Removes entries past their deadline; returns one accusation per
    /// unicast entry whose expected forwarder never forwarded: the
    /// `(accused, sig, armed_at)` triples, oldest entry first.
    pub fn expire(&mut self, now: Micros) -> Vec<(NodeId, PacketSig, Micros)> {
        let mut accusations = Vec::new();
        // Deadlines are sorted along the ring: the expired rows are a prefix.
        while let Some(row) = self.rows.pop_front_if(|row| row.deadline <= now) {
            self.fingerprints.pop_front();
            if let (Some(a), false) = (row.expected_forwarder, row.satisfied) {
                accusations.push((a, row.sig, row.armed_at));
            }
        }
        accusations
    }

    /// Marks satisfied every entry expecting `forwarder` to forward `sig`
    /// — used when the forwarder broadcast a route error: failing to
    /// forward for lack of a route is not a drop.
    pub fn absolve(&mut self, forwarder: NodeId, sig: &PacketSig) {
        for row in &mut self.rows {
            if row.expected_forwarder == Some(forwarder) && row.sig == *sig {
                row.satisfied = true;
            }
        }
    }

    /// Cancels pending *drop expectations* armed for transmissions of
    /// `prev` (used when the node learns `prev` is suspected: receivers
    /// rightly refusing its packets must not be charged with drops).
    /// Broadcast entries are kept — they still validate honest forwards.
    pub fn cancel_expectations_from(&mut self, prev: NodeId) {
        self.retain(|row| row.prev != prev || row.expected_forwarder.is_none());
    }

    /// The deadline of the oldest held entry: the earliest time at which
    /// [`WatchBuffer::expire`] removes anything (deadlines are sorted
    /// along the ring). `None` when empty.
    pub fn head_deadline(&self) -> Option<Micros> {
        self.rows.front().map(|row| row.deadline)
    }

    /// Entries currently held.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the buffer is empty.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Entries evicted due to capacity pressure over the buffer's life.
    pub fn evictions(&self) -> u64 {
        self.evictions
    }

    /// Storage footprint per the Section 5.2 accounting: 20 bytes per
    /// entry.
    pub fn storage_bytes(&self) -> usize {
        self.len() * 20
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::PacketKind;

    fn sig(seq: u64) -> PacketSig {
        PacketSig {
            kind: PacketKind::RouteReply,
            origin: NodeId(9),
            target: NodeId(1),
            seq,
        }
    }

    fn bsig(seq: u64) -> PacketSig {
        PacketSig {
            kind: PacketKind::RouteRequest,
            origin: NodeId(1),
            target: NodeId(9),
            seq,
        }
    }

    #[test]
    fn matched_unicast_forward_clears_entry() {
        let mut buf = WatchBuffer::new(4);
        buf.note_transmission(NodeId(2), sig(1), Some(NodeId(3)), Micros(100), Micros(0));
        assert!(buf.confirm_forward(NodeId(2), &sig(1), NodeId(3)));
        // The satisfied entry stays until its deadline (retransmissions
        // of the same forward must keep matching) and expires silently.
        assert_eq!(buf.len(), 1);
        assert!(
            buf.confirm_forward(NodeId(2), &sig(1), NodeId(3)),
            "retry matches"
        );
        assert!(buf.expire(Micros(200)).is_empty());
        assert!(buf.is_empty());
    }

    #[test]
    fn unmatched_forward_is_fabrication() {
        let mut buf = WatchBuffer::new(4);
        // No transmission by node 2 was overheard.
        assert!(!buf.confirm_forward(NodeId(2), &sig(1), NodeId(3)));
    }

    #[test]
    fn wrong_prev_is_fabrication() {
        let mut buf = WatchBuffer::new(4);
        buf.note_transmission(NodeId(2), sig(1), Some(NodeId(3)), Micros(100), Micros(0));
        // Claiming prev = 5 when only 2 transmitted: fabrication.
        assert!(!buf.confirm_forward(NodeId(5), &sig(1), NodeId(3)));
    }

    #[test]
    fn expired_unicast_accuses_the_receiver() {
        let mut buf = WatchBuffer::new(4);
        buf.note_transmission(NodeId(2), sig(1), Some(NodeId(3)), Micros(100), Micros(0));
        let accused = buf.expire(Micros(100));
        assert_eq!(accused, vec![(NodeId(3), sig(1), Micros(0))]);
        assert!(buf.is_empty());
    }

    #[test]
    fn broadcast_entries_match_many_forwarders_then_expire_silently() {
        let mut buf = WatchBuffer::new(4);
        buf.note_transmission(NodeId(2), bsig(1), None, Micros(100), Micros(0));
        assert!(buf.confirm_forward(NodeId(2), &bsig(1), NodeId(3)));
        assert!(buf.confirm_forward(NodeId(2), &bsig(1), NodeId(4)));
        assert_eq!(buf.len(), 1, "broadcast entry persists");
        assert!(buf.expire(Micros(100)).is_empty(), "no drop accusation");
        assert!(buf.is_empty());
    }

    #[test]
    fn capacity_evicts_oldest() {
        let mut buf = WatchBuffer::new(2);
        buf.note_transmission(NodeId(2), sig(1), Some(NodeId(3)), Micros(100), Micros(0));
        buf.note_transmission(NodeId(2), sig(2), Some(NodeId(3)), Micros(100), Micros(0));
        buf.note_transmission(NodeId(2), sig(3), Some(NodeId(3)), Micros(100), Micros(0));
        assert_eq!(buf.len(), 2);
        assert_eq!(buf.evictions(), 1);
        // The evicted first packet is now "unseen": fabrication if claimed.
        assert!(!buf.confirm_forward(NodeId(2), &sig(1), NodeId(3)));
    }

    #[test]
    fn duplicate_transmissions_are_not_double_armed() {
        let mut buf = WatchBuffer::new(4);
        buf.note_transmission(NodeId(2), sig(1), Some(NodeId(3)), Micros(100), Micros(0));
        buf.note_transmission(NodeId(2), sig(1), Some(NodeId(3)), Micros(150), Micros(0));
        assert_eq!(buf.len(), 1);
        // Satisfy it once; expiry must accuse nobody.
        assert!(buf.confirm_forward(NodeId(2), &sig(1), NodeId(3)));
        assert!(buf.expire(Micros(200)).is_empty());
    }

    #[test]
    fn forward_by_wrong_node_does_not_clear_obligation() {
        let mut buf = WatchBuffer::new(4);
        buf.note_transmission(NodeId(2), sig(1), Some(NodeId(3)), Micros(100), Micros(0));
        // Node 4 forwarding (it also heard node 2) matches the signature,
        // so it is not a fabrication by 4...
        assert!(buf.confirm_forward(NodeId(2), &sig(1), NodeId(4)));
        // ...but node 3's obligation stands and expires into an accusation.
        assert_eq!(
            buf.expire(Micros(100)),
            vec![(NodeId(3), sig(1), Micros(0))]
        );
    }

    #[test]
    fn storage_accounting() {
        let mut buf = WatchBuffer::new(4);
        buf.note_transmission(NodeId(2), sig(1), Some(NodeId(3)), Micros(100), Micros(0));
        buf.note_transmission(NodeId(2), sig(2), None, Micros(100), Micros(0));
        assert_eq!(buf.storage_bytes(), 40);
    }

    #[test]
    #[should_panic(expected = "needs capacity")]
    fn zero_capacity_rejected() {
        WatchBuffer::new(0);
    }

    #[test]
    #[should_panic(expected = "must not decrease")]
    fn decreasing_deadline_rejected() {
        let mut buf = WatchBuffer::new(4);
        buf.note_transmission(NodeId(2), sig(1), Some(NodeId(3)), Micros(300), Micros(0));
        buf.note_transmission(NodeId(2), sig(2), Some(NodeId(3)), Micros(100), Micros(0));
    }

    #[test]
    fn sustained_eviction_churn_keeps_fifo_order() {
        // Push far past capacity: the buffer must always hold the newest
        // `capacity` rows in arrival order.
        let mut buf = WatchBuffer::new(3);
        for n in 0..50u64 {
            buf.note_transmission(
                NodeId(2),
                sig(n),
                Some(NodeId(3)),
                Micros(1_000 + n),
                Micros(0),
            );
        }
        assert_eq!(buf.len(), 3);
        assert_eq!(buf.evictions(), 47);
        let seqs: Vec<u64> = buf.entries().map(|e| e.sig.seq).collect();
        assert_eq!(seqs, vec![47, 48, 49]);
        assert!(!buf.entries().any(|e| e.satisfied()));
        // Only the survivors can still be confirmed.
        assert!(!buf.confirm_forward(NodeId(2), &sig(46), NodeId(3)));
        assert!(buf.confirm_forward(NodeId(2), &sig(47), NodeId(3)));
        // Expiry after eviction churn accuses exactly the unsatisfied rest.
        let accused = buf.expire(Micros(2_000));
        assert_eq!(
            accused,
            vec![
                (NodeId(3), sig(48), Micros(0)),
                (NodeId(3), sig(49), Micros(0)),
            ]
        );
        assert!(buf.is_empty());
    }
}
