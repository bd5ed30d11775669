//! Reproducibility: identical seeds produce bit-identical runs, and
//! different seeds genuinely differ.

use liteworp_bench::Scenario;
use liteworp_chaos::{FaultPlan, Injector};
use liteworp_runner::cache::fnv64;

type Fingerprint = (u64, u64, u64, u64, Vec<(u64, u32, String)>);

fn fingerprint(seed: u64) -> Fingerprint {
    let mut run = Scenario {
        nodes: 30,
        malicious: 2,
        protected: true,
        seed,
        ..Scenario::default()
    }
    .build();
    run.run_until_secs(300.0);
    let m = run.sim().metrics();
    let trace: Vec<(u64, u32, String)> = run
        .sim()
        .trace()
        .events()
        .map(|e| (e.time_us, e.node, format!("{:?}", e.kind)))
        .collect();
    (
        m.frames_sent,
        m.frames_collided,
        run.data_delivered(),
        run.wormhole_dropped(),
        trace,
    )
}

#[test]
fn same_seed_same_world() {
    assert_eq!(fingerprint(51), fingerprint(51));
}

/// Serialized trace of a fixed chaos-injected run — the worst case for
/// determinism (fault verdicts consume their own RNG stream, crash windows
/// defer events, jitter reorders deliveries).
fn chaos_trace_jsonl() -> String {
    let mut run = Scenario {
        nodes: 25,
        malicious: 2,
        protected: true,
        seed: 97,
        ..Scenario::default()
    }
    .build();
    let plan = FaultPlan {
        seed: 11,
        drop: 0.05,
        duplicate: 0.03,
        delay: 0.04,
        max_jitter_us: 20_000,
        ..FaultPlan::default()
    };
    plan.validate().expect("plan within documented bounds");
    run.sim_mut().set_fault_hook(Box::new(Injector::new(plan)));
    run.run_until_secs(120.0);
    run.sim().trace().log().to_jsonl()
}

/// A chaos-injected run is exactly as reproducible as a clean one: two
/// runs with the same (scenario seed, fault plan) pair serialize
/// byte-identical trace logs. This is the determinism discipline the lint
/// gate's D-rules exist to protect, exercised end to end through the
/// fault-injection seam.
#[test]
fn chaos_injected_trace_is_byte_identical() {
    let a = chaos_trace_jsonl();
    let b = chaos_trace_jsonl();
    assert!(!a.is_empty(), "chaos run produced no trace events");
    assert_eq!(
        a, b,
        "chaos-injected traces diverged between identical runs"
    );
}

/// Digest of the chaos-injected trace above, captured on the brute-force
/// (pre-spatial-index, AoS-state) simulator. The spatial grid, the indexed
/// medium, the SoA node state, and the extracted event queue are pure
/// indexing changes: every query answer, every RNG draw, and every event
/// order must be exactly what the O(N²) code produced. A digest change
/// here means the refactor altered behavior, not just speed.
///
/// Re-pinned when the watch-expiry tick became demand-armed: the tick
/// grid is now anchored at each node's first observation instead of at
/// t=0, which shifts expiry timestamps (never verdicts) within one
/// `EXPIRE_TICK` and re-bases the event-sequence numbers in the trace.
const PRE_INDEX_CHAOS_TRACE_FNV: &str = "6fb3518194a33114";

/// Digest of a clean (fault-free) run fingerprint, captured on the same
/// pre-refactor code (re-pinned with the demand-armed expiry tick, as
/// above). Covers the no-hook fast path.
const PRE_INDEX_CLEAN_FNV: &str = "1afc7086215b1426";

/// The index swap is behavior-preserving: same-seed runs digest to the
/// values captured before the refactor. Unlike `same_seed_same_world`
/// (which only proves self-consistency), this pins the *absolute* byte
/// stream across code versions.
#[test]
fn index_refactor_preserves_pinned_digests() {
    let chaos = format!("{:016x}", fnv64(chaos_trace_jsonl().as_bytes()));
    assert_eq!(
        chaos, PRE_INDEX_CHAOS_TRACE_FNV,
        "chaos-injected trace digest drifted from the pre-refactor baseline"
    );
    let clean = format!(
        "{:016x}",
        fnv64(format!("{:?}", fingerprint(51)).as_bytes())
    );
    assert_eq!(
        clean, PRE_INDEX_CLEAN_FNV,
        "clean-run fingerprint digest drifted from the pre-refactor baseline"
    );
}

#[test]
fn different_seeds_different_worlds() {
    let a = fingerprint(52);
    let b = fingerprint(53);
    assert_ne!(
        (a.0, a.1, a.2),
        (b.0, b.1, b.2),
        "two seeds produced identical traffic counts — suspicious"
    );
}
