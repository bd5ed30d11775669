//! Corpus: the sweep engine's profiling pattern — a wall-clock read with a
//! written reason is clean. The measurement feeds the run manifest, never
//! the simulation, so determinism is unaffected.

pub fn batch_wall_ms() -> f64 {
    // lint: allow(D001) profiling: batch wall-clock for the manifest only
    let t0 = std::time::Instant::now();
    t0.elapsed().as_secs_f64() * 1e3
}
