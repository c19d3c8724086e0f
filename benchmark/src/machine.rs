//! Machine-ceiling probes: what this box can do with no engine in the way,
//! so scan and sort numbers can be stated as a fraction of a ceiling
//! measured in the same process rather than against older code.

use std::hint::black_box;
use std::time::Instant;

use crate::fixtures::Rng;
use crate::metrics::median;

#[derive(Debug, Clone, Copy)]
pub struct Machine {
    pub nproc: usize,
    /// Single-thread `copy_from_slice` bandwidth, counting bytes copied once.
    pub memcpy_gbps: f64,
    /// `sort_unstable` on a bare `Vec<i64>`.
    pub sort_ns_per_row: f64,
}

/// `memcpy_bytes` and `sort_rows` shrink in smoke runs.
pub fn probe(memcpy_bytes: usize, sort_rows: usize) -> Machine {
    let src = vec![1u8; memcpy_bytes];
    let mut dst = vec![0u8; memcpy_bytes];
    // The first copy pays the page faults of a fresh allocation; time the rest.
    dst.copy_from_slice(&src);
    let copies: Vec<f64> = (0..3)
        .map(|_| {
            let t = Instant::now();
            dst.copy_from_slice(black_box(&src));
            black_box(&mut dst);
            t.elapsed().as_secs_f64()
        })
        .collect();

    let mut rng = Rng::new(0x50F7);
    let keys: Vec<i64> = (0..sort_rows).map(|_| rng.next_u64() as i64).collect();
    let sorts: Vec<f64> = (0..3)
        .map(|_| {
            let mut v = keys.clone();
            let t = Instant::now();
            v.sort_unstable();
            black_box(&v);
            t.elapsed().as_secs_f64()
        })
        .collect();

    Machine {
        nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
        memcpy_gbps: memcpy_bytes as f64 / median(&copies) / 1e9,
        sort_ns_per_row: median(&sorts) * 1e9 / sort_rows as f64,
    }
}
