//! When a guard's watch-expiry timer fires.
//!
//! A guard's watch buffer pops its expired rows on an `EXPIRE` tick. The
//! ticks of one chain sit on a grid, `origin + k·tick` for `k ≥ 1`, where
//! the origin is the observation that made an idle buffer non-empty. A
//! chain that fired every tick would wake a guard ~8 times per watched
//! packet (δ = 2 s, tick = 250 ms) to pop nothing. [`ExpiryChain`] keeps
//! the same grid and the same pops but schedules only the ticks at which
//! the buffer's oldest row (its head) has expired:
//!
//! * **Start.** An observation that makes an idle buffer non-empty starts
//!   a chain at `now`; its first tick is the first grid tick at or after
//!   the head's deadline.
//! * **Fire.** After a tick the next one is the first grid tick that is
//!   both `≥ now + tick` and `≥` the new head's deadline. Deadlines are
//!   sorted along the buffer, so no row falls due before it, and every row
//!   still pops at the first grid tick at or after its deadline, as it
//!   did when every tick fired.
//! * **Lapse.** A tick that finds the buffer empty ends the chain. A
//!   buffer can also be drained between ticks (an alert cancels the
//!   expectations armed for its suspect); the chain then lapses at the
//!   next grid tick unless a row arrives first, and a row arriving at or
//!   after that tick starts a new chain. The old chain's timer is still
//!   queued: each timer carries its chain's generation, and a stale one
//!   is ignored.
//! * **Monitoring off.** Nothing pops, so the chain ticks every `tick`.
//!
//! Ties: a tick is now queued earlier than when every tick fired, so its
//! `(time, seq)` order against another event at the same µs can differ.
//! Frame receptions (alerts included) are queued less than one tick
//! before they run, so a reception at a grid tick still runs after that
//! tick, as before; a drain exactly on a tick therefore lapses the chain
//! one tick later. Under a fault hook that defers a crashed node's timers
//! or drifts its clock, a deferred tick re-anchors the grid where it
//! fires, but the skipped ticks are not individually deferred or drifted.

/// `lapse_at` when no drain is pending.
const NOT_DRAINED: u64 = u64::MAX;

/// A timer the chain asks the host to set: fire after `delay_us` with
/// `gen` in the token.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Arm {
    pub(crate) delay_us: u64,
    pub(crate) gen: u32,
}

/// One node's watch-expiry chain (times in µs).
#[derive(Debug, Clone, Copy)]
pub(crate) struct ExpiryChain {
    /// The grid's anchor: the chain's origin, then each fired tick.
    anchor: u64,
    /// After a drain between ticks: the grid tick at which the chain
    /// lapses unless a row arrives first; [`NOT_DRAINED`] otherwise.
    lapse_at: u64,
    /// Generation of the live timer; a timer of another one is stale.
    gen: u32,
    /// Whether a live timer is queued.
    armed: bool,
}

impl Default for ExpiryChain {
    fn default() -> Self {
        ExpiryChain {
            anchor: 0,
            lapse_at: NOT_DRAINED,
            gen: 0,
            armed: false,
        }
    }
}

/// The delay from `now` to the first tick of the grid through `now`
/// that is both `≥ now + tick` and `≥ head`.
fn due_delay(now: u64, head: u64, tick: u64) -> u64 {
    let wait = head.saturating_sub(now).max(tick);
    wait.div_ceil(tick) * tick
}

impl ExpiryChain {
    /// Whether a live timer is queued.
    pub(crate) fn armed(&self) -> bool {
        self.armed
    }

    /// Call after every observation at `now`. `head` yields the buffer's
    /// head deadline (`None` when empty); it is read only when the chain
    /// may need to start, so the common case costs one flag test.
    #[inline]
    pub(crate) fn after_observe(
        &mut self,
        now: u64,
        tick: u64,
        head: impl FnOnce() -> Option<u64>,
    ) -> Option<Arm> {
        if self.armed && self.lapse_at == NOT_DRAINED {
            return None;
        }
        let head = head()?;
        if self.armed {
            // Refilled after a drain: the chain goes on unless it lapsed.
            let lapsed = now >= self.lapse_at;
            self.lapse_at = NOT_DRAINED;
            if !lapsed {
                return None;
            }
        }
        self.gen = self.gen.wrapping_add(1);
        self.anchor = now;
        self.armed = true;
        Some(Arm {
            delay_us: due_delay(now, head, tick),
            gen: self.gen,
        })
    }

    /// Call when something other than a tick emptied the buffer at `now`.
    pub(crate) fn drained(&mut self, now: u64, tick: u64) {
        if self.armed && self.lapse_at == NOT_DRAINED {
            // The first grid tick strictly after `now`.
            self.lapse_at = self.anchor + ((now - self.anchor) / tick + 1) * tick;
        }
    }

    /// Whether a timer carrying `gen` belongs to the live chain; a stale
    /// one must be ignored.
    pub(crate) fn is_live(&self, gen: u32) -> bool {
        self.armed && gen == self.gen
    }

    /// Call after a live tick at `now` ran expiry (when `monitoring`),
    /// with the buffer's head deadline; returns the next timer, or `None`
    /// when the chain lapses.
    pub(crate) fn fired(
        &mut self,
        now: u64,
        tick: u64,
        head: Option<u64>,
        monitoring: bool,
    ) -> Option<Arm> {
        self.anchor = now;
        self.lapse_at = NOT_DRAINED;
        let Some(head) = head else {
            self.armed = false;
            return None;
        };
        let delay_us = if monitoring {
            due_delay(now, head, tick)
        } else {
            tick
        };
        Some(Arm {
            delay_us,
            gen: self.gen,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use liteworp_netsim::rng::{Pcg32, Rng};
    use std::cmp::Reverse;
    use std::collections::{BTreeMap, BinaryHeap, VecDeque};

    const TICK: u64 = 250_000;

    #[test]
    fn due_delay_lands_on_the_grid() {
        assert_eq!(due_delay(0, 2_000_000, TICK), 2_000_000);
        assert_eq!(due_delay(0, 2_000_001, TICK), 2_250_000);
        assert_eq!(due_delay(100, 100, TICK), TICK, "at least one tick");
        assert_eq!(due_delay(100, 50, TICK), TICK, "an overdue head");
        assert_eq!(due_delay(10, 260_011, TICK), 2 * TICK);
    }

    /// A watched row: its deadline, whether the buffer's drain hook
    /// cancels it (an expectation armed for the suspect) and whether its
    /// expiry charges someone.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    struct Row {
        deadline: u64,
        cancellable: bool,
        charges: bool,
    }

    /// What happens at one instant of a scripted run.
    #[derive(Debug, Clone, Copy)]
    enum Input {
        /// An observation that arms a row due at `now + delta`.
        Arrive { cancellable: bool, charges: bool },
        /// An alert cancels every cancellable row.
        Drain,
        /// Monitoring goes on or off.
        Monitoring(bool),
    }

    /// Which reading of the chain a run follows.
    trait Chain {
        fn observed(&mut self, now: u64, head: Option<u64>) -> Option<Arm>;
        fn drained(&mut self, now: u64, empty: bool);
        /// Whether a timer carrying `gen` is live (not stale).
        fn live(&self, gen: u32) -> bool;
        fn fired(&mut self, now: u64, head: Option<u64>, monitoring: bool) -> Option<Arm>;
    }

    /// The chain as it ran before: armed by the first row, then a tick
    /// every `TICK` while anything is held.
    #[derive(Default)]
    struct EveryTick {
        armed: bool,
    }

    impl Chain for EveryTick {
        fn observed(&mut self, _now: u64, head: Option<u64>) -> Option<Arm> {
            if self.armed || head.is_none() {
                return None;
            }
            self.armed = true;
            Some(Arm {
                delay_us: TICK,
                gen: 0,
            })
        }
        fn drained(&mut self, _now: u64, _empty: bool) {}
        fn live(&self, _gen: u32) -> bool {
            true
        }
        fn fired(&mut self, _now: u64, head: Option<u64>, _monitoring: bool) -> Option<Arm> {
            self.armed = head.is_some();
            self.armed.then_some(Arm {
                delay_us: TICK,
                gen: 0,
            })
        }
    }

    impl Chain for ExpiryChain {
        fn observed(&mut self, now: u64, head: Option<u64>) -> Option<Arm> {
            self.after_observe(now, TICK, || head)
        }
        fn drained(&mut self, now: u64, empty: bool) {
            if empty {
                ExpiryChain::drained(self, now, TICK);
            }
        }
        fn live(&self, gen: u32) -> bool {
            self.is_live(gen)
        }
        fn fired(&mut self, now: u64, head: Option<u64>, monitoring: bool) -> Option<Arm> {
            ExpiryChain::fired(self, now, TICK, head, monitoring)
        }
    }

    /// What a run saw: every tick that popped rows as `(time, popped,
    /// charges)`, the ring's contents after each instant anything
    /// happened at, the times chains started, and how many timers fired.
    #[derive(Debug, Default, PartialEq, Eq)]
    struct Seen {
        pops: Vec<(u64, usize, usize)>,
        rings: BTreeMap<u64, Vec<Row>>,
        starts: Vec<u64>,
        timers: usize,
    }

    /// Runs `script` (inputs at strictly increasing-or-equal times)
    /// against `chain`. Timers fire before inputs at the same µs (they
    /// were queued earlier), and in the order they were queued.
    fn run(chain: &mut impl Chain, script: &[(u64, Input)], delta: u64, end: u64) -> Seen {
        let mut seen = Seen::default();
        let mut ring: VecDeque<Row> = VecDeque::new();
        let mut monitoring = true;
        type Timers = BinaryHeap<Reverse<(u64, u64, u32)>>;
        let mut timers = Timers::new();
        let mut seq = 0u64;
        let mut push = |timers: &mut Timers, now: u64, arm: Arm| {
            seq += 1;
            timers.push(Reverse((now + arm.delay_us, seq, arm.gen)));
        };
        let mut inputs = script.iter().peekable();
        loop {
            let next_timer = timers.peek().map(|Reverse((t, _, _))| *t);
            let next_input = inputs.peek().map(|(t, _)| *t);
            let now = match (next_timer, next_input) {
                (Some(t), Some(i)) => t.min(i),
                (Some(t), None) => t,
                (None, Some(i)) => i,
                (None, None) => break,
            };
            if now > end {
                break;
            }
            if next_timer == Some(now) {
                let Reverse((_, _, gen)) = timers.pop().unwrap();
                seen.timers += 1;
                if !chain.live(gen) {
                    continue;
                }
                if monitoring {
                    let mut popped = 0;
                    let mut charges = 0;
                    while ring.front().is_some_and(|r| r.deadline <= now) {
                        let row = ring.pop_front().unwrap();
                        popped += 1;
                        charges += usize::from(row.charges);
                    }
                    if popped > 0 {
                        seen.pops.push((now, popped, charges));
                    }
                }
                if let Some(arm) = chain.fired(now, ring.front().map(|r| r.deadline), monitoring) {
                    push(&mut timers, now, arm);
                }
            } else {
                let (_, input) = inputs.next().unwrap();
                match *input {
                    Input::Arrive {
                        cancellable,
                        charges,
                    } => {
                        if !monitoring {
                            // A guard that does not monitor arms nothing.
                            continue;
                        }
                        let was_empty = ring.is_empty();
                        ring.push_back(Row {
                            deadline: now + delta,
                            cancellable,
                            charges,
                        });
                        if let Some(arm) = chain.observed(now, ring.front().map(|r| r.deadline)) {
                            assert!(was_empty, "a chain starts only on an idle ring");
                            seen.starts.push(now);
                            push(&mut timers, now, arm);
                        }
                    }
                    Input::Drain => {
                        ring.retain(|r| !r.cancellable);
                        chain.drained(now, ring.is_empty());
                    }
                    Input::Monitoring(on) => monitoring = on,
                }
            }
            seen.rings.insert(now, ring.iter().copied().collect());
        }
        seen
    }

    /// The rows that are live at each instant and the pops must agree;
    /// where a chain restarts may differ only by a drain's tie.
    fn assert_same(script: &[(u64, Input)], delta: u64, end: u64) -> (Seen, Seen) {
        let every = run(&mut EveryTick::default(), script, delta, end);
        let due = run(&mut ExpiryChain::default(), script, delta, end);
        assert_eq!(due.pops, every.pops, "pops differ for {script:?}");
        // The reference records a ring at each of its ticks, which the
        // due chain skips: compare with the due chain's latest state.
        let at = |seen: &Seen, t: u64| {
            seen.rings
                .range(..=t)
                .next_back()
                .map(|(_, r)| r.clone())
                .unwrap_or_default()
        };
        for (t, ring) in &every.rings {
            assert_eq!(&at(&due, *t), ring, "ring differs at {t} for {script:?}");
        }
        assert_eq!(due.starts, every.starts, "chains start alike");
        (every, due)
    }

    #[test]
    fn one_row_pops_at_its_grid_tick_with_one_timer() {
        let script = [(
            1_000,
            Input::Arrive {
                cancellable: false,
                charges: true,
            },
        )];
        let (every, due) = assert_same(&script, 2_000_000, u64::MAX);
        assert_eq!(due.pops, vec![(2_001_000, 1, 1)]);
        assert_eq!(every.timers, 8);
        assert_eq!(due.timers, 1);
    }

    #[test]
    fn a_drain_lapses_the_chain_at_the_next_grid_tick() {
        let row = Input::Arrive {
            cancellable: true,
            charges: true,
        };
        // Drained at 300 µs past the origin: the chain lapses at 250 ms.
        // A row before that continues the grid; one at or after it
        // starts a new one.
        for (second, restarts) in [(200_000, false), (250_000, true), (400_000, true)] {
            let script = [(0, row), (300, Input::Drain), (second, row)];
            let (_, due) = assert_same(&script, 2_000_000, u64::MAX);
            assert_eq!(due.starts.len(), 1 + usize::from(restarts), "{second}");
        }
        // Drained exactly on a grid tick: that tick ran first, so the
        // lapse is one tick later.
        let script = [(0, row), (250_000, Input::Drain), (400_000, row)];
        let (_, due) = assert_same(&script, 2_000_000, u64::MAX);
        assert_eq!(due.starts, vec![0], "the 500 ms tick has not come yet");
        let script = [(0, row), (250_000, Input::Drain), (500_000, row)];
        let (_, due) = assert_same(&script, 2_000_000, u64::MAX);
        assert_eq!(due.starts, vec![0, 500_000]);
    }

    #[test]
    fn without_monitoring_the_chain_ticks_every_tick() {
        let row = Input::Arrive {
            cancellable: true,
            charges: false,
        };
        let script = [
            (0, row),
            (10, Input::Monitoring(false)),
            (3_000_000, Input::Drain),
        ];
        let (every, due) = assert_same(&script, 2_000_000, u64::MAX);
        assert!(every.pops.is_empty());
        // The due chain's first tick is at 2 s; from there it ticks every
        // 250 ms, as the reference did all along, until the drain.
        assert_eq!(every.timers, 13);
        assert_eq!(due.timers, 6);
    }

    #[test]
    fn seeded_scripts_pop_alike_with_fewer_timers() {
        let mut rng = Pcg32::seed_from_u64(0x5eed);
        let (mut every_timers, mut due_timers) = (0, 0);
        for case in 0..400 {
            let delta = [2_000_000, 600_000, 730_001, 250_000, 100_000][case % 5];
            let mut script = Vec::new();
            let mut now = 0u64;
            for _ in 0..rng.gen_range(1..60usize) {
                now += match rng.gen_range(0..4u32) {
                    0 => 0,
                    1 => rng.gen_range(1..1_000u64),
                    2 => rng.gen_range(1..3 * TICK),
                    _ => rng.gen_range(1..6_000_000u64),
                };
                let input = match rng.gen_range(0..20u32) {
                    0..=13 => Input::Arrive {
                        cancellable: rng.gen_range(0..3u32) == 0,
                        charges: rng.gen_range(0..2u32) == 0,
                    },
                    14..=17 => {
                        // Drains often land exactly on the grid of a chain
                        // that started at a multiple of the tick.
                        if rng.gen_range(0..2u32) == 0 {
                            now = now.div_ceil(TICK) * TICK;
                        }
                        Input::Drain
                    }
                    _ => Input::Monitoring(rng.gen_range(0..4u32) != 0),
                };
                script.push((now, input));
            }
            // Monitoring may end the script off, with rows held: then
            // both chains tick forever, so stop a while after the last
            // row could have popped.
            let end = now + 2 * delta + 8 * TICK;
            let (every, due) = assert_same(&script, delta, end);
            every_timers += every.timers;
            due_timers += due.timers;
        }
        // Short δs and monitoring-off stretches (which tick every tick in
        // both) keep the ratio well above the ~1/8 of δ = 2 s alone.
        assert!(
            due_timers * 3 < every_timers * 2,
            "{due_timers} due timers vs {every_timers}"
        );
    }
}
