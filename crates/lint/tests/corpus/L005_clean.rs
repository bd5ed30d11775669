//! Corpus: the shape `L005_bad.rs` is rejected for, restructured the way
//! L005 asks — collect under the first guard, drop it, then take the
//! second lock. No allow is needed and the file is clean.

use std::sync::{Mutex, PoisonError};

pub struct Pair {
    pub a: Mutex<u32>,
    pub b: Mutex<u32>,
}

pub fn drain(p: &Pair) {
    let ga = p.a.lock().unwrap_or_else(PoisonError::into_inner);
    let a = *ga;
    drop(ga);
    let mut gb = p.b.lock().unwrap_or_else(PoisonError::into_inner);
    *gb += a;
}
