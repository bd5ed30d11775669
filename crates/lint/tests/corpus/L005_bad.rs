//! Corpus: a reasoned C001 allow in library code — the reason is
//! written, the allow suppresses a real nested acquisition, and it is
//! still rejected (L005).

use std::sync::{Mutex, PoisonError};

pub struct Pair {
    pub a: Mutex<u32>,
    pub b: Mutex<u32>,
}

pub fn drain(p: &Pair) {
    let ga = p.a.lock().unwrap_or_else(PoisonError::into_inner);
    // lint: allow(C001) ad-hoc nesting that never got registered
    let mut gb = p.b.lock().unwrap_or_else(PoisonError::into_inner);
    *gb += *ga;
}
