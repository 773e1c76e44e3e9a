//! Host-speed reference.
//!
//! On the shared 2-vCPU VM this benchmark was tuned on, neighbouring tenants
//! slow allocation-heavy code by up to 2x for seconds to minutes at a time
//! (no steal time, no system time: the program simply runs slower), while a
//! pure ALU loop moves by a few percent. Every op of the three workloads is
//! allocation-heavy, so a raw time says as much about the neighbours as
//! about the program.
//!
//! The benchmark therefore times a fixed reference kernel that calls nothing
//! of the program (build, walk and drop a 4,000-entry
//! `BTreeMap<String, Vec<u64>>`) before and after every slice of work and
//! every set-up, and scales the times measured in between by
//! `NOMINAL_UNIT_MS / measured unit time`: reported times are those of a host
//! on which one reference unit takes `NOMINAL_UNIT_MS`. The kernel lives here
//! and nowhere else, so no change to the program can alter it.

use crate::report::median;
use crate::rng::{Rng, STREAM_HOST};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

/// One reference unit on the VM this benchmark was tuned on (Xeon, 2 vCPUs
/// at 2.0 GHz) when its neighbours are quiet.
pub const NOMINAL_UNIT_MS: f64 = 1.4;
/// Units timed per probe; the probe reports their median.
const UNITS: usize = 5;

fn unit() -> usize {
    let mut rng = Rng::stream(0, STREAM_HOST, 0);
    let mut map = BTreeMap::new();
    for k in 0..4000u64 {
        let y = rng.next_u64();
        map.insert(format!("k{}_{k}", y >> 40), vec![k; (y >> 60) as usize + 1]);
    }
    map.iter().map(|(k, v)| k.len() + v.len()).sum()
}

/// Median time of one reference unit now, in ms.
pub fn probe() -> f64 {
    let times: Vec<f64> = (0..UNITS)
        .map(|_| {
            let t = Instant::now();
            black_box(unit());
            t.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    median(&times)
}

/// The factor that takes a time measured between two probes to the nominal
/// host.
pub fn scale(before_ms: f64, after_ms: f64) -> f64 {
    NOMINAL_UNIT_MS / ((before_ms + after_ms) / 2.0)
}
