//! A fixed reference workload that uses none of the program under test, so
//! its time changes only with the host's speed, never with the program's.

use std::hint::black_box;

/// Pixel-stream, branchy run-counting and floating-point work over a
/// VGA-sized buffer, plus fresh-page faults, in about the mix of user and
/// kernel time the session loop spends; returns a checksum so none of it can
/// be optimised away.
pub fn reference_work() -> u64 {
    const W: usize = 640;
    const H: usize = 480;
    let mut img = vec![0u8; W * H];
    let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
    let mut acc = 0u64;
    for round in 0..6u64 {
        for p in img.iter_mut() {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            *p = (x >> 56) as u8;
        }
        let mut runs = 0u64;
        for row in img.chunks_exact(W) {
            let mut prev = false;
            for &v in row {
                let on = v > 128;
                runs += u64::from(on && !prev);
                prev = on;
            }
        }
        let mut s = 0.0f64;
        for (i, &v) in img.iter().enumerate().step_by(5) {
            s += (f64::from(v) * 0.01 + i as f64 * 1e-6).sin();
        }
        acc = acc
            .wrapping_add(runs)
            .wrapping_add(s.to_bits() >> 40)
            .wrapping_add(round)
            .wrapping_add(fresh_pages());
    }
    black_box(acc)
}

/// Page faults, as a frame-allocating loop takes them: maps an allocation
/// too large for the allocator to keep (so it comes straight from the
/// kernel and goes back on drop), and touches a few hundred of its pages.
/// Only the touched pages count toward the resident set.
fn fresh_pages() -> u64 {
    const MAPPED: usize = 64 << 20;
    const PAGE: usize = 4096;
    const TOUCHED: usize = 512;
    let mut v: Vec<u8> = Vec::with_capacity(MAPPED);
    let spare = v.spare_capacity_mut();
    for i in 0..TOUCHED {
        spare[i * PAGE].write(i as u8);
    }
    black_box(&mut v);
    TOUCHED as u64
}
