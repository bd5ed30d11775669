//! LITEWORP protocol parameters.

use std::sync::Arc;

/// Tunable parameters of the LITEWORP protocol (Section 4, Table 2).
///
/// Notation from the paper:
///
/// | Field | Paper symbol | Meaning |
/// |---|---|---|
/// | `watch_timeout_us` | δ (tau) | deadline for a watched packet to be forwarded |
/// | `fabrication_weight` | `V_f` | `MalC` increment for a fabricated packet |
/// | `drop_weight` | `V_d` | `MalC` increment for a dropped packet |
/// | `malc_threshold` | `C_t` | `MalC` value at which a guard accuses |
/// | `confidence_index` | γ | distinct guard alerts needed to isolate |
/// | `watch_capacity` | — | watch-buffer entries (cost analysis: 4 suffice) |
/// | `malc_window_us` | T | sliding window over which `MalC` accumulates; `0` disables decay |
///
/// # Example
///
/// ```
/// use liteworp::config::Config;
///
/// let cfg = Config::default();
/// assert_eq!(cfg.confidence_index, 2);
/// cfg.validate().expect("defaults are consistent");
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Config {
    /// Watch-buffer deadline δ in microseconds: how long a guard waits for
    /// the receiver of a packet to forward it before accusing it of a drop.
    pub watch_timeout_us: u64,
    /// `V_f`: `MalC` increment for fabricating a control packet.
    pub fabrication_weight: u32,
    /// `V_d`: `MalC` increment for dropping a control packet.
    pub drop_weight: u32,
    /// `C_t`: threshold at which a guard revokes the neighbor and alerts.
    pub malc_threshold: u32,
    /// γ: number of distinct guards whose alerts a node requires before
    /// isolating a neighbor (the *detection confidence index*).
    pub confidence_index: usize,
    /// Maximum entries the watch buffer retains (oldest evicted first).
    pub watch_capacity: usize,
    /// Sliding window `T` (µs) over which `MalC` contributions persist;
    /// `0` means counters never decay (the paper's static-network default).
    pub malc_window_us: u64,
    /// Extend local monitoring to *data* packets (drop and fabrication
    /// detection on the data plane). The paper monitors control traffic
    /// only; this switch implements the natural extension (pursued by the
    /// authors' follow-up work) that also catches plain blackholes.
    /// Default off for fidelity.
    pub monitor_data: bool,
    /// Minimum interval between repeated alert rounds for a suspect that
    /// keeps transmitting after being accused (µs). A guard alerts when
    /// `MalC` first crosses `C_t`; if it later still hears the revoked
    /// node on the air, it re-sends its alerts at most this often so
    /// neighbors whose alerts were lost still reach γ. `0` disables
    /// re-alerting (single-shot, the paper's literal reading).
    pub realert_interval_us: u64,
    /// Benefit-of-the-doubt window after a local collision indication:
    /// while a guard knows its own radio recently lost a frame to a
    /// collision, it abstains from judging (the lost frame may well have
    /// been the transmission whose absence it would otherwise punish).
    /// `0` disables abstention.
    pub collision_grace_us: u64,
}

impl Default for Config {
    fn default() -> Self {
        Config {
            // 2 s: covers the protocol forwarding jitter plus MAC queueing
            // under flood congestion at 40 kbps, so legitimate-but-delayed
            // forwards are not mistaken for drops/fabrications.
            watch_timeout_us: 2_000_000,
            fabrication_weight: 2,
            drop_weight: 1,
            // k = C_t / V_f = 3 fabrications per guard before accusing.
            // Empirically (see EXPERIMENTS.md) this gives 100% wormhole
            // detection with zero false isolations over long runs, with
            // isolation latencies in the tens of seconds.
            malc_threshold: 6,
            confidence_index: 2,
            // Sized for the watch load of a dense flood-heavy network:
            // a guard arms one entry per overheard control transmission
            // and entries live for delta (2 s). The paper's Section 5.2
            // example derives 4 entries for its far lighter load; the
            // cost model exposes the same sizing computation.
            watch_capacity: 512,
            // Table 2: T = 200 (time units). Contributions older than the
            // window no longer count toward C_t, so rare false suspicions
            // (collision-induced) decay instead of accumulating forever.
            malc_window_us: 200_000_000,
            monitor_data: false,
            realert_interval_us: 30_000_000,
            // 0.8 s: long enough to cover the window in which the missed
            // transmission (jitter + MAC queueing ahead of the judged
            // forward) could have been lost, short enough that a guard in
            // a busy neighborhood still gets to judge between collisions.
            collision_grace_us: 800_000,
        }
    }
}

/// Error returned by [`Config::validate`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InvalidConfig(pub(crate) String);

impl core::fmt::Display for InvalidConfig {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "invalid LITEWORP config: {}", self.0)
    }
}

impl std::error::Error for InvalidConfig {}

impl Config {
    /// Checks parameter consistency.
    ///
    /// # Errors
    ///
    /// Returns [`InvalidConfig`] if any weight or threshold is zero, the
    /// confidence index is zero, or the watch buffer has no capacity.
    pub fn validate(&self) -> Result<(), InvalidConfig> {
        if self.watch_timeout_us == 0 {
            return Err(InvalidConfig("watch_timeout_us must be positive".into()));
        }
        if self.fabrication_weight == 0 || self.drop_weight == 0 {
            return Err(InvalidConfig("misbehavior weights must be positive".into()));
        }
        if self.malc_threshold == 0 {
            return Err(InvalidConfig("malc_threshold must be positive".into()));
        }
        if self.confidence_index == 0 {
            return Err(InvalidConfig("confidence_index must be positive".into()));
        }
        if self.watch_capacity == 0 {
            return Err(InvalidConfig("watch_capacity must be positive".into()));
        }
        Ok(())
    }

    /// Number of *fabrications* a single guard must observe before its
    /// `MalC` crosses the threshold (the analysis parameter `k`).
    pub fn fabrications_to_accuse(&self) -> u32 {
        self.malc_threshold.div_ceil(self.fabrication_weight)
    }

    /// Number of *drops* a single guard must observe before accusing.
    pub fn drops_to_accuse(&self) -> u32 {
        self.malc_threshold.div_ceil(self.drop_weight)
    }
}

/// Where a guard reads its [`Config`]: one value that many nodes can
/// share. A deployment of 10⁵ guards with equal parameters keeps one
/// copy behind one `Arc`, not one per node; a host can hand over the
/// shared parameter block it already keeps for its own settings.
pub trait ConfigSource: core::fmt::Debug + Send + Sync {
    /// The LITEWORP parameters in force.
    fn config(&self) -> &Config;
}

impl ConfigSource for Config {
    fn config(&self) -> &Config {
        self
    }
}

/// A guard built from a plain [`Config`] keeps it behind its own `Arc`,
/// so [`crate::Liteworp::new`] takes either a `Config` or a shared
/// source.
impl From<Config> for Arc<dyn ConfigSource> {
    fn from(config: Config) -> Self {
        Arc::new(config)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_validates() {
        Config::default().validate().unwrap();
    }

    #[test]
    fn accusation_counts() {
        let cfg = Config::default();
        assert_eq!(cfg.fabrications_to_accuse(), 3); // ceil(6/2)
        assert_eq!(cfg.drops_to_accuse(), 6); // ceil(6/1)
        let odd = Config {
            malc_threshold: 5,
            ..cfg
        };
        assert_eq!(odd.fabrications_to_accuse(), 3); // ceil(5/2)
    }

    #[test]
    fn rejects_zero_fields() {
        for f in [
            |c: &mut Config| c.watch_timeout_us = 0,
            |c: &mut Config| c.fabrication_weight = 0,
            |c: &mut Config| c.drop_weight = 0,
            |c: &mut Config| c.malc_threshold = 0,
            |c: &mut Config| c.confidence_index = 0,
            |c: &mut Config| c.watch_capacity = 0,
        ] {
            let mut cfg = Config::default();
            f(&mut cfg);
            assert!(cfg.validate().is_err(), "should reject {cfg:?}");
        }
    }

    #[test]
    fn invalid_config_displays_reason() {
        let cfg = Config {
            malc_threshold: 0,
            ..Config::default()
        };
        let err = cfg.validate().unwrap_err();
        assert!(err.to_string().contains("malc_threshold"));
    }
}
