//! Table 1 (attack-mode taxonomy, verified live) and Table 2 (the input
//! parameters the simulation actually uses).

use crate::scenario::{Scenario, ScenarioAttack};
use liteworp::config::Config;
use liteworp_attacks::mode::AttackMode;
use liteworp_routing::params::REQ_FORWARD_JITTER;

/// One verified row of Table 1.
#[derive(Debug, Clone)]
pub struct Table1Row {
    /// Attack-mode name.
    pub mode: String,
    /// Minimum compromised nodes (from the taxonomy).
    pub min_compromised: usize,
    /// Special requirement, if any.
    pub special_requirement: String,
    /// Whether the paper claims LITEWORP handles it.
    pub handled_by_liteworp: bool,
    /// Live verification: did the protected network neutralize the attack
    /// (detect the colluders, or reject the attack's packets)?
    pub verified_neutralized: bool,
    /// Live evidence string (metric observed).
    pub evidence: String,
}

/// Parameters for the live Table 1 verification runs.
#[derive(Debug, Clone)]
pub struct Table1Config {
    /// Network size for the demonstration runs.
    pub nodes: usize,
    /// Run length in seconds.
    pub duration: f64,
    /// Seed.
    pub seed: u64,
}

impl Default for Table1Config {
    fn default() -> Self {
        Table1Config {
            nodes: 40,
            duration: 400.0,
            seed: 9,
        }
    }
}

/// Builds Table 1, running one protected scenario per attack mode to
/// verify the claimed coverage.
pub fn table1(cfg: &Table1Config) -> Vec<Table1Row> {
    AttackMode::ALL
        .iter()
        .map(|mode| {
            let (neutralized, evidence) = verify_mode(*mode, cfg);
            Table1Row {
                mode: mode.to_string(),
                min_compromised: mode.min_compromised_nodes(),
                special_requirement: mode.special_requirement().unwrap_or("none").to_string(),
                handled_by_liteworp: mode.handled_by_liteworp(),
                verified_neutralized: neutralized,
                evidence,
            }
        })
        .collect()
}

fn verify_mode(mode: AttackMode, cfg: &Table1Config) -> (bool, String) {
    let (attack, malicious, tunnel_latency) = match mode {
        AttackMode::PacketEncapsulation => (ScenarioAttack::Wormhole, 2, 0.05),
        AttackMode::OutOfBandChannel => (ScenarioAttack::Wormhole, 2, 0.0),
        AttackMode::HighPowerTransmission => (ScenarioAttack::HighPower(3.0), 1, 0.0),
        AttackMode::PacketRelay => (ScenarioAttack::Relay, 1, 0.0),
        AttackMode::ProtocolDeviation => (ScenarioAttack::Rushing { drop_data: true }, 1, 0.0),
    };
    let mut run = Scenario {
        nodes: cfg.nodes,
        malicious,
        protected: true,
        seed: cfg.seed,
        attack,
        tunnel_latency,
        ..Scenario::default()
    }
    .build();
    run.run_until_secs(cfg.duration);
    match mode {
        AttackMode::PacketEncapsulation | AttackMode::OutOfBandChannel => {
            let detected = run.all_detected();
            (
                detected,
                format!(
                    "colluders detected={detected}, wormhole drops plateau at {}",
                    run.wormhole_dropped()
                ),
            )
        }
        AttackMode::HighPowerTransmission | AttackMode::PacketRelay => {
            // Neutralized = the attack's long-range packets were rejected
            // and no established route traverses a fake (out-of-range)
            // link. The attacker may still relay honestly inside its own
            // real neighborhood — that is not a wormhole.
            let rejected: u64 = (0..cfg.nodes as u32)
                .map(|i| {
                    run.protocol_node(liteworp::types::NodeId(i))
                        .stats()
                        .frames_rejected
                })
                .sum();
            let fake = run.fake_link_routes();
            let neutralized = rejected > 0 && fake == 0;
            (
                neutralized,
                format!("{rejected} frames rejected, {fake} fake-link routes"),
            )
        }
        AttackMode::ProtocolDeviation => {
            // NOT handled: the rusher attracts routes and drops data while
            // never being detected. "Verified" here means we verified the
            // paper's negative claim.
            let dropped = run.sim().metrics().get("rushing_dropped");
            let detected = run.all_detected();
            (
                !detected && dropped > 0,
                format!("rusher detected={detected}, data dropped={dropped}"),
            )
        }
    }
}

/// The Table 2 parameter dump: the configuration the simulation actually
/// runs with, next to the paper's values.
#[derive(Debug, Clone)]
pub struct Table2Row {
    /// Parameter name.
    pub parameter: String,
    /// Paper value (Table 2).
    pub paper: String,
    /// Value used in this reproduction.
    pub ours: String,
}

/// Builds Table 2 from the live defaults.
pub fn table2() -> Vec<Table2Row> {
    let s = Scenario::default();
    let c = Config::default();
    let row = |parameter: &str, paper: &str, ours: String| Table2Row {
        parameter: parameter.to_string(),
        paper: paper.to_string(),
        ours,
    };
    vec![
        row("Tx range r", "30 m", format!("{} m", s.radio.range_m)),
        row(
            "Channel BW",
            "40 kbps",
            format!("{} kbps", s.radio.bitrate_bps / 1000),
        ),
        row(
            "Total nodes N",
            "20, 50, 100, 150",
            "20/50/100/150 (sweep)".into(),
        ),
        row("N_B (avg neighbors)", "8", format!("{}", s.avg_neighbors)),
        row(
            "Data inter-arrival",
            "1/10 s⁻¹ (mean 10 s)",
            format!("mean {} s", s.data_mean),
        ),
        row(
            "Destination change",
            "1/200 s⁻¹ (mean 200 s)",
            format!("mean {} s", s.dest_change_mean),
        ),
        row("TOut_Route", "50 s", format!("{} s", s.route_timeout)),
        row(
            "M (compromised)",
            "0–4",
            format!("{} (0–4 in sweeps)", s.malicious),
        ),
        row(
            "γ (confidence index)",
            "2–8",
            format!("{} (2–8 in Fig 10)", c.confidence_index),
        ),
        row(
            "MalC window T",
            "200",
            format!("{} s", c.malc_window_us / 1_000_000),
        ),
        row(
            "δ (watch timeout)",
            "(garbled in scan)",
            format!("{} s", c.watch_timeout_us as f64 / 1e6),
        ),
        row(
            "C_t / V_f / V_d",
            "(garbled in scan)",
            format!(
                "{} / {} / {}",
                c.malc_threshold, c.fabrication_weight, c.drop_weight
            ),
        ),
        row("Attack start", "50 s", format!("{} s", s.attack_start)),
        row(
            "Request fwd jitter",
            "random backoff (§3.5)",
            format!("U[0, {:.0} ms]", REQ_FORWARD_JITTER.as_secs_f64() * 1e3),
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table2_lists_core_parameters() {
        let rows = table2();
        assert!(rows.iter().any(|r| r.parameter.contains("Tx range")));
        assert!(rows.iter().any(|r| r.parameter.contains("TOut_Route")));
        assert!(rows.len() >= 12);
    }

    #[test]
    fn taxonomy_rows_match_table_1() {
        // Structural fields only (live verification exercised in the
        // integration suite; here keep it cheap with a stub config).
        let modes = AttackMode::ALL;
        assert_eq!(modes.len(), 5);
        assert_eq!(modes.iter().filter(|m| m.handled_by_liteworp()).count(), 4);
    }
}
