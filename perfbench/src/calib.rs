//! A fixed host-speed probe: a small allocation-, map- and copy-heavy
//! computation that uses only the standard library, so no change to the
//! program under test can change its cost. Timed beside every repetition,
//! it shows how fast the host ran while the repetition ran.
//!
//! The container this benchmark runs in shares its host: over minutes the
//! host's speed moves by up to 2x, which no amount of repetition inside
//! one run averages out. The end-to-end timings are therefore reported at
//! the reference host speed, using the ratio of the probe's median time in
//! the run to [`REFERENCE_S`]. Compute-bound timings (the simulator, CPU
//! time, set-up) are scaled by the whole ratio. Threaded wall time is
//! scaled only in the share during which the run kept the CPUs busy.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

/// The probe's median time on the reference host (a quiet 2-CPU
/// container), seconds.
pub const REFERENCE_S: f64 = 0.025;

/// Run the probe once; returns its wall time in seconds.
pub fn probe() -> f64 {
    let t0 = Instant::now();
    let mut map: BTreeMap<u64, Vec<u64>> = BTreeMap::new();
    let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
    let mut acc = 0u64;
    for i in 0..160_000u64 {
        // xorshift: a fixed pseudo-random key sequence.
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let key = x % 4_096;
        if i % 4 == 3 {
            if let Some(v) = map.remove(&key) {
                acc =
                    acc.wrapping_add(v.iter().fold(0, |h, &e| h.wrapping_mul(31).wrapping_add(e)));
            }
        } else {
            map.entry(key).or_default().push(x);
        }
        if i % 8_000 == 0 {
            acc = acc.wrapping_add(black_box(map.clone()).len() as u64);
        }
    }
    black_box(acc);
    t0.elapsed().as_secs_f64()
}
